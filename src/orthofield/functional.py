"""Finite-range functionals of the innovation field and their exact L2 geometry.

A functional is a finite linear combination of product terms; each factor reads
one lattice site through an elementary map (the raw value, an indicator of one
alphabet point, or an integer power).  Because innovation sites are
independent, every expectation of a product term factorizes over sites, which
makes conditional expectations, inner products, and norms exact finite sums
without enumerating the window.  Dense value tables are kept for equality
testing only: syntactically different but equal functionals must compare equal.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod, sqrt
from typing import Callable, Iterable

from ._lazy import np
from .innovation import Configuration, InnovationLaw, check_enum_cap
from .lattice import Site
from .tolerances import DEVIATION_BUDGET, TABLE_TOL

VALUE = "value"
INDICATOR = "indicator"
POWER = "power"

_KINDS = (VALUE, INDICATOR, POWER)


class Factor(namedtuple("Factor", "site kind arg")):
    """One elementary read of a single site, as the tuple ``(site, kind, arg)``.

    Tuple order is the canonical factor order; ``arg`` is ``None`` only for value factors.
    """

    __slots__ = ()

    def __new__(cls, site: Site, kind: str = VALUE, arg: float | int | None = None) -> "Factor":
        site = tuple(int(c) for c in site)
        if kind not in _KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        if kind == VALUE and arg is not None:
            raise ValueError("value factors take no argument")
        if kind == INDICATOR:
            if arg is None:
                raise ValueError("indicator factors need a target value")
            arg = float(arg)
        if kind == POWER:
            if arg is None or json_int(arg) < 0:
                raise ValueError("power factors need a nonnegative integer exponent")
            arg = int(arg)
        return tuple.__new__(cls, (site, kind, arg))

    def _moved(self, i: Site) -> "Factor":
        """The same read at ``site + i``; the fields are already canonical, so no re-validation."""
        site, kind, arg = self
        return tuple.__new__(Factor, (tuple(a + b for a, b in zip(site, i)), kind, arg))

    def evaluate(self, value: float) -> float:
        if self.kind == VALUE:
            return value
        if self.kind == INDICATOR:
            return 1.0 if value == self.arg else 0.0
        return value**self.arg


@lru_cache(maxsize=4096)
def _site_vector(law: InnovationLaw, reads: tuple) -> np.ndarray:
    """The product of the ``(kind, arg)`` reads of one site, multiplied in order.

    Equal reads share one array, so :meth:`FiniteRangeFunctional.inner` can
    key the per-site moments on array identity.
    """
    out = _alphabet_vector(law, *reads[0])
    for kind, arg in reads[1:]:
        out = out * _alphabet_vector(law, kind, arg)
    out.setflags(write=False)
    return out


def apply_read(kind: str, arg, values: np.ndarray) -> np.ndarray:
    """One elementary read of every innovation value in ``values``.

    A value read returns ``values`` itself; the other kinds return a new array.
    """
    if kind == VALUE:
        return values
    if kind == INDICATOR:
        return (values == arg).astype(np.float64)
    return values**arg


@lru_cache(maxsize=1024)
def _alphabet_vector(law: InnovationLaw, kind: str, arg) -> np.ndarray:
    """One read at every alphabet point, built once per ``(law, kind, arg)``."""
    out = apply_read(kind, arg, np.asarray(law.values, dtype=np.float64))
    out.setflags(write=False)
    return out


Term = tuple[float, tuple[Factor, ...]]


def _canonical(acc: dict[tuple[Factor, ...], float]) -> tuple[Term, ...]:
    """The canonicalize step: drop the exact zeros of ``acc`` and sort its terms once.

    ``acc`` maps sorted factor tuples to accumulated coefficients, each sum
    started from ``0.0``.  Its keys are distinct, so sorting the items orders
    the terms by their factor tuples alone.
    """
    return tuple((c, fs) for fs, c in sorted(acc.items()) if c != 0.0)


def _merge_terms(items: Iterable[tuple[float, Iterable[Factor]]]) -> tuple[Term, ...]:
    """Canonical terms of raw ``(coeff, factors)`` items: sort each factor list, add equal ones."""
    acc: dict[tuple[Factor, ...], float] = {}
    for coeff, factors in items:
        key = tuple(sorted(factors))
        acc[key] = acc.get(key, 0.0) + float(coeff)
    return _canonical(acc)


@dataclass(frozen=True, eq=False)
class FiniteRangeFunctional:
    """A finite-range function of the innovation field.

    Instances are immutable value objects; build them with the module helpers
    (:func:`innovation_at`, :func:`indicator_at`, ...) or combine existing ones
    with ``+``, ``-``, ``*`` and :meth:`shift`.

    ``terms`` is always canonical: each factor tuple is sorted in tuple order
    (site, then kind, then argument; see :class:`Factor`), no two terms have
    equal factor tuples, no coefficient is zero, and the terms are sorted by
    their factor tuples.  So construction paths do not leak into results.  The
    constructor takes ``terms`` as given and does not check this; build from
    raw ``(coeff, factors)`` items with :meth:`from_items` (or
    :func:`from_terms`), which canonicalizes them.  A subsequence of canonical
    terms is canonical as it stands.  :meth:`shift`, :meth:`integrate_sites`, :func:`signed_sum` and
    so ``+`` and ``-`` rely on the invariant and do not re-sort.
    """

    law: InnovationLaw
    dim: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        for _, factors in self.terms:
            for f in factors:
                if len(f.site) != self.dim:
                    raise ValueError(
                        f"factor site {f.site} has dimension {len(f.site)}, expected {self.dim}"
                    )

    @classmethod
    def from_items(
        cls, law: InnovationLaw, dim: int, items: Iterable[tuple[float, Iterable[Factor]]]
    ) -> "FiniteRangeFunctional":
        """The functional ``sum coeff * prod factors`` of raw items, with canonical terms."""
        return cls(law, dim, _merge_terms(items))

    # -- structure -----------------------------------------------------------

    @cached_property
    def window(self) -> tuple[Site, ...]:
        """Sorted distinct sites the terms read."""
        return tuple(sorted({f.site for _, fs in self.terms for f in fs}))

    @property
    def is_zero(self) -> bool:
        """Structurally zero (no terms); table-level zero is tested via deviation."""
        return not self.terms

    @cached_property
    def _axis_coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted({s[axis] for s in self.window})) for axis in range(self.dim))

    def axis_coords(self, axis: int) -> tuple[int, ...]:
        """Sorted distinct coordinates of the window along one axis (cached)."""
        return self._axis_coords[axis]

    @cached_property
    def _term_data(self):
        """Per term: (coeff, {site: alphabet vector}, {site: mean}).

        The vector at a site is the product of all factor reads there; the mean
        is its expectation under the law.
        """
        probs = np.asarray(self.law.probs, dtype=np.float64)
        data = []
        for coeff, factors in self.terms:
            reads: dict[Site, tuple] = {}
            for f in factors:
                reads[f.site] = reads.get(f.site, ()) + ((f.kind, f.arg),)
            vecs = {s: _site_vector(self.law, r) for s, r in reads.items()}
            means = {s: float(probs @ v) for s, v in vecs.items()}
            data.append((coeff, vecs, means))
        return data

    @cached_property
    def _term_bounds(self) -> list[float]:
        """Per term: ``|coeff|`` times the product of max absolute vector entries.

        A sup-norm bound on the term; only :meth:`_split_terms` reads it.
        """
        return [
            abs(coeff) * prod(float(np.max(np.abs(v))) for v in vecs.values())
            for coeff, vecs, _ in self._term_data
        ]

    # -- algebra ---------------------------------------------------------------

    def _check_compatible(self, other: "FiniteRangeFunctional") -> None:
        if self.law != other.law:
            raise ValueError("functionals built on different innovation laws")
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def shift(self, i: Site) -> "FiniteRangeFunctional":
        """The shifted functional reading site ``s + i`` wherever this one reads ``s``.

        A relabel, not a merge: translating every site by the same ``i`` keeps
        the canonical order of the factors and of the terms and keeps distinct
        terms distinct, so the moved terms are canonical as they stand.
        """
        i = tuple(int(c) for c in i)
        if len(i) != self.dim:
            raise ValueError(f"shift vector {i} has wrong dimension")
        moved = tuple((c, tuple(f._moved(i) for f in fs)) for c, fs in self.terms)
        return FiniteRangeFunctional(self.law, self.dim, moved)

    def __add__(self, other: "FiniteRangeFunctional") -> "FiniteRangeFunctional":
        return signed_sum(self.law, self.dim, ((1, self), (1, other)))

    def __sub__(self, other: "FiniteRangeFunctional") -> "FiniteRangeFunctional":
        return signed_sum(self.law, self.dim, ((1, self), (-1, other)))

    def __neg__(self) -> "FiniteRangeFunctional":
        # Negation is exact and keeps the order: no merge.
        return FiniteRangeFunctional(self.law, self.dim, tuple((-c, fs) for c, fs in self.terms))

    def __mul__(self, other):
        if isinstance(other, FiniteRangeFunctional):
            self._check_compatible(other)
            terms = _merge_terms(
                (c1 * c2, fs1 + fs2)
                for c1, fs1 in self.terms
                for c2, fs2 in other.terms
            )
        else:
            # Scaling keeps the order; only products that round to zero drop out.
            scale = float(other)
            terms = tuple((scale * c, fs) for c, fs in self.terms if scale * c != 0.0)
        return FiniteRangeFunctional(self.law, self.dim, terms)

    __rmul__ = __mul__

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, config: Configuration) -> float:
        """Evaluate on one configuration; every window site must be assigned."""
        assignment = config.assignment
        total = 0.0
        for coeff, factors in self.terms:
            val = coeff
            for f in factors:
                if f.site not in assignment:
                    raise ValueError(f"configuration does not assign site {f.site}")
                val *= f.evaluate(assignment[f.site])
            total += val
        return total

    # -- exact integration -------------------------------------------------------

    def integrate_sites(self, keep: Callable[[Site], bool]) -> "FiniteRangeFunctional":
        """Average out every window site for which ``keep`` is false.

        Exact: sites are independent, so each term's dropped sites contribute
        the expectation of their combined factor read.  This is the primitive
        behind all conditional expectations.
        """
        return FiniteRangeFunctional(self.law, self.dim, _canonical(self._integrated(keep)))

    def integrate_difference(
        self, keep: Callable[[Site], bool], keep_less: Callable[[Site], bool]
    ) -> "FiniteRangeFunctional":
        """``integrate_sites(keep) - integrate_sites(keep_less)``, fused into one merge.

        Both integrations are accumulated; each product then gets
        ``hi + (-lo)`` and the result is canonicalized once.  Bit for bit the
        difference of the two canonical functionals: an exact ``0.0`` that
        canonicalization would drop on either side adds nothing.
        """
        acc = self._integrated(keep)
        for fs, c in self._integrated(keep_less).items():
            acc[fs] = acc.get(fs, 0.0) - c
        return FiniteRangeFunctional(self.law, self.dim, _canonical(acc))

    def _integrated(self, keep: Callable[[Site], bool]) -> dict[tuple[Factor, ...], float]:
        """The accumulate step of :meth:`integrate_sites`: kept factors -> summed coefficient.

        The kept factors of a term stay in their sorted order, so they key the
        sum without a re-sort.  Each dropped site's mean multiplies the
        coefficient once, in factor order, which is site order; a shift keeps
        that order, so every projection of ``f.shift(k)`` is the shift of the
        projection of ``f`` bit for bit.
        """
        acc: dict[tuple[Factor, ...], float] = {}
        for (coeff, factors), (_, _, means) in zip(self.terms, self._term_data):
            c = coeff
            kept = []
            last = None  # the last dropped site: a site's factors are adjacent
            for f in factors:
                if keep(f.site):
                    kept.append(f)
                elif f.site != last:
                    last = f.site
                    c *= means[last]
            key = tuple(kept)
            acc[key] = acc.get(key, 0.0) + c
        return acc

    # -- L2 geometry ---------------------------------------------------------------

    def expectation(self) -> float:
        """Exact mean under the product law."""
        return float(
            sum(c * prod(means.values()) for (c, _, means) in self._term_data)
        )

    def inner(self, other: "FiniteRangeFunctional") -> float:
        """Exact inner product ``E[f g]``; factorizes over the union window."""
        self._check_compatible(other)
        probs = np.asarray(self.law.probs, dtype=np.float64)
        # E[v1 v2] per pair of site vectors, keyed on identity: the vectors are
        # shared (see _site_vector) and both functionals hold them for the call.
        moments: dict[tuple[int, int], float] = {}
        total = 0.0
        for c1, vecs1, means1 in self._term_data:
            for c2, vecs2, means2 in other._term_data:
                val = c1 * c2
                for site, v1 in vecs1.items():
                    v2 = vecs2.get(site)
                    if v2 is None:
                        val *= means1[site]
                        continue
                    key = (id(v1), id(v2))
                    moment = moments.get(key)
                    if moment is None:
                        moment = moments[key] = float(probs @ (v1 * v2))
                    val *= moment
                for site, m2 in means2.items():
                    if site not in vecs1:
                        val *= m2
                if val == 0.0:
                    continue
                total += val
        return total

    def norm(self) -> float:
        """Exact L2 norm."""
        return sqrt(max(self.inner(self), 0.0))

    # -- tables and comparison -------------------------------------------------------

    def materialize(self) -> "ValueTable":
        """Dense value table over the window (canonical form for comparisons)."""
        sites = self.window
        check_enum_cap(len(sites), self.law)
        return ValueTable(sites, self.law, _table_array(self, sites))

    def deviation(
        self,
        other: "FiniteRangeFunctional | None" = None,
        budget: float = DEVIATION_BUDGET,
    ) -> float:
        """Upper bound on the max pointwise difference from ``other`` (or from zero).

        Terms whose sup-norm bound is below ``budget / n_terms`` are not
        materialized; their bounds are added to the result instead, so the
        returned value always dominates the true max deviation while keeping
        the enumerated window small.
        """
        diff = self if other is None else self - other
        if diff.is_zero:
            return 0.0
        big, tiny_mass = diff._split_terms(budget)
        if not big:
            return tiny_mass
        core = FiniteRangeFunctional(diff.law, diff.dim, big)
        sites = core.window
        check_enum_cap(len(sites), diff.law)
        return float(np.max(np.abs(_table_array(core, sites)))) + tiny_mass

    def equal(self, other: "FiniteRangeFunctional") -> bool:
        """Semantic equality: max table deviation at most ``TABLE_TOL``."""
        return self.deviation(other, budget=TABLE_TOL * 1e-3) <= TABLE_TOL

    def essential_window(self) -> tuple[Site, ...]:
        """Window of the terms that carry more than ``DEVIATION_BUDGET`` of mass."""
        if self.is_zero:
            return ()
        big, _ = self._split_terms(DEVIATION_BUDGET)
        return tuple(sorted({f.site for _, factors in big for f in factors}))

    def _split_terms(self, budget: float) -> tuple[tuple[Term, ...], float]:
        """The terms whose sup-norm bound exceeds ``budget / n_terms``, and the summed rest.

        The bounds of the small terms are added in term order.  Needs at least
        one term.
        """
        threshold = budget / len(self.terms)
        big = []
        tiny_mass = 0.0
        for term, bound in zip(self.terms, self._term_bounds):
            if bound <= threshold:
                tiny_mass += bound
            else:
                big.append(term)
        return tuple(big), tiny_mass


def _table_array(f: FiniteRangeFunctional, sites: tuple[Site, ...]) -> np.ndarray:
    """Dense evaluation over all configurations of ``sites`` (one axis per site)."""
    n = len(sites)
    pos = {s: k for k, s in enumerate(sites)}
    shape = (f.law.size,) * n
    out = np.zeros(shape, dtype=np.float64)
    for coeff, vecs, _ in f._term_data:
        arr = np.full(shape, coeff, dtype=np.float64) if n else np.float64(coeff)
        for site, v in vecs.items():
            axis_shape = [1] * n
            axis_shape[pos[site]] = f.law.size
            arr = arr * v.reshape(axis_shape)
        out = out + arr
    return out


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Canonical dense form of a functional on a sorted site list.

    ``values[i1, ..., ik]`` is the functional evaluated on the configuration
    assigning alphabet point ``law.values[ij]`` to the j-th site.
    """

    sites: tuple[Site, ...]
    law: InnovationLaw
    values: np.ndarray


# -- builders ----------------------------------------------------------------------


def signed_sum(
    law: InnovationLaw, dim: int, pairs: Iterable[tuple[int, FiniteRangeFunctional]]
) -> FiniteRangeFunctional:
    """The sum of ``sign * g`` over ``(sign, g)`` pairs (``sign`` is 1 or -1), in one merge.

    Bit for bit the left fold ``out = out + g`` / ``out = out - g`` from
    :func:`zero`: the terms of each canonical ``g`` have distinct factor
    tuples, so every product sees the same float additions in the same order;
    negation is exact; and dropping an exact ``0.0`` and restarting from
    ``0.0`` gives what keeping it gives, since a sum of nonzero floats is
    never ``-0.0``.  Only the final sum is canonicalized.
    """
    acc: dict[tuple[Factor, ...], float] = {}
    for sign, g in pairs:
        if g.law != law:
            raise ValueError("functionals built on different innovation laws")
        if g.dim != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {g.dim}")
        if sign > 0:
            for c, fs in g.terms:
                acc[fs] = acc.get(fs, 0.0) + c
        else:
            for c, fs in g.terms:
                acc[fs] = acc.get(fs, 0.0) - c
    return FiniteRangeFunctional(law, dim, _canonical(acc))


def zero(law: InnovationLaw, dim: int) -> FiniteRangeFunctional:
    return FiniteRangeFunctional(law, dim, ())


def constant(law: InnovationLaw, dim: int, value: float) -> FiniteRangeFunctional:
    """The constant ``value``: one product with no factors (none if ``value`` is zero).

    At most one term is canonical as it stands, so no merge is needed.
    """
    value = float(value)
    return FiniteRangeFunctional(law, dim, ((value, ()),) if value != 0.0 else ())


def innovation_at(law: InnovationLaw, site) -> FiniteRangeFunctional:
    """The coordinate functional reading the raw innovation at ``site``."""
    site = tuple(int(c) for c in site)
    return FiniteRangeFunctional.from_items(law, len(site), [(1.0, (Factor(site),))])


def indicator_at(law: InnovationLaw, site, target: float) -> FiniteRangeFunctional:
    site = tuple(int(c) for c in site)
    return FiniteRangeFunctional.from_items(
        law, len(site), [(1.0, (Factor(site, INDICATOR, target),))]
    )


def power_at(law: InnovationLaw, site, exponent: int) -> FiniteRangeFunctional:
    site = tuple(int(c) for c in site)
    return FiniteRangeFunctional.from_items(
        law, len(site), [(1.0, (Factor(site, POWER, exponent),))]
    )


def json_array(value):
    """``value`` itself if it is a JSON array; a string is not read as its characters."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"need a JSON array, got {type(value).__name__}")
    return value


def json_int(value) -> int:
    """``value`` as an integer; a bool, a string or a float with a fractional part is not one."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"need an integer, got {value!r}")
    return int(value)


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"need a JSON object, got {type(value).__name__}")
    return value


def from_terms(law: InnovationLaw, dim: int, spec) -> FiniteRangeFunctional:
    """Build from a declarative term list.

    ``spec`` is a JSON array of ``{"coeff": float, "factors": [...]}`` objects;
    each factor is an object ``{"site": [...], "kind": "value"|"indicator"|"power",
    "arg": ...}`` (``arg`` omitted for plain values) whose site is an array of
    integers.  This is the wire format used by experiment configuration files;
    anything else raises ``TypeError``.
    """
    items = []
    for entry in json_array(spec):
        entry = _json_object(entry)
        factors = [
            Factor(map(json_int, json_array(fd["site"])), fd.get("kind", VALUE), fd.get("arg"))
            for fd in map(_json_object, json_array(entry.get("factors", [])))
        ]
        items.append((float(entry["coeff"]), factors))
    return FiniteRangeFunctional.from_items(law, dim, items)
