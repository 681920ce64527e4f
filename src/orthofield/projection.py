"""Exact conditional expectations and projection operators for the Bernoulli filtration.

The filtration at lattice index ``j`` is generated by all innovations at sites
coordinatewise at most ``j``; the one-axis filtration at level ``l`` along axis
``q`` is generated by all sites whose q-th coordinate is at most ``l``.  Under
the product law, conditioning on either is exact partial integration: every
window site outside the conditioning set is averaged out.  Filtrations are
never materialized; a conditioning index plus the law determines the operator.
Levels beyond the window's coordinate range act as the infinite-level
sentinels (conditioning on everything / on nothing).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .functional import FiniteRangeFunctional, signed_sum, zero
from .lattice import Site, leq
from .tolerances import PROJECTION_DROP


class Corner(NamedTuple):
    """Condition on all innovations at sites coordinatewise at most ``site``."""

    site: Site


class Halfspace(NamedTuple):
    """Condition on all innovations whose ``axis`` coordinate is at most ``level``."""

    axis: int
    level: int


ConditioningIndex = Corner | Halfspace


def cond_expect(f: FiniteRangeFunctional, cond: ConditioningIndex) -> FiniteRangeFunctional:
    """Exact conditional expectation; integrates out all non-measurable sites."""
    if isinstance(cond, Corner):
        corner = tuple(int(c) for c in cond.site)
        if len(corner) != f.dim:
            raise ValueError(f"corner {corner} has wrong dimension")
        return f.integrate_sites(lambda s: leq(s, corner))
    axis, level = int(cond.axis), int(cond.level)
    if not 0 <= axis < f.dim:
        raise ValueError(f"axis {axis} out of range for dimension {f.dim}")
    return f.integrate_sites(lambda s: s[axis] <= level)


def project_line(f: FiniteRangeFunctional, axis: int, level: int) -> FiniteRangeFunctional:
    """One-axis projection: conditional expectation at ``level`` minus at ``level - 1``.

    Vanishes identically when no window site has the given coordinate, since
    both conditionings then integrate out the same sites.  The difference is
    formed in one merge (:meth:`FiniteRangeFunctional.integrate_difference`),
    bit for bit the difference of the two conditional expectations.
    """
    if not 0 <= axis < f.dim:
        raise ValueError(f"axis {axis} out of range for dimension {f.dim}")
    if level not in f.axis_coords(axis):
        return zero(f.law, f.dim)
    return f.integrate_difference(lambda s: s[axis] <= level, lambda s: s[axis] < level)


def project_full(f: FiniteRangeFunctional, j: Site) -> FiniteRangeFunctional:
    """Full projection at lattice index ``j``: the composition over all axes.

    In dimension two this is the four-term inclusion-exclusion of corner
    conditional expectations.
    """
    return project_each(f, [j])[tuple(int(c) for c in j)]


def project_each(
    f: FiniteRangeFunctional, indices: Iterable[Site]
) -> dict[Site, FiniteRangeFunctional]:
    """``{j: P_j f}`` for every index: the line projections along each axis in turn.

    Indices that agree on their first axes share those line projections, so
    each distinct prefix is projected once.  A zero prefix stays zero at no
    cost, since :func:`project_line` returns at once on an empty window.
    """
    idx = [tuple(int(c) for c in j) for j in indices]
    for j in idx:
        if len(j) != f.dim:
            raise ValueError(f"index {j} has wrong dimension")
    partial = {(): f}
    for axis in range(f.dim):
        partial = {
            j[: axis + 1]: project_line(partial[j[:axis]], axis, j[axis])
            for j in dict.fromkeys(j[: axis + 1] for j in idx)
        }
    return {j: partial[j] for j in idx}


def projective_decomposition(f: FiniteRangeFunctional) -> dict[Site, FiniteRangeFunctional]:
    """All lattice indices with a nonzero projection of ``f``, with their projections.

    Only indices whose every coordinate appears in the window can contribute.
    The projections sum back to ``f`` minus its mean (projections annihilate
    constants), so they reconstruct every centered functional exactly.
    """
    if f.is_zero:
        return {}
    drop = PROJECTION_DROP * (1.0 + f.norm())
    out: dict[Site, FiniteRangeFunctional] = {}
    indices = itertools.product(*(f.axis_coords(axis) for axis in range(f.dim)))
    for j, g in project_each(f, indices).items():
        if not g.is_zero and g.norm() > drop:
            out[j] = g
    return out


def kernel_shift_candidates(f: FiniteRangeFunctional) -> list[Site]:
    """Shifts ``i`` for which the projection at the origin of the shifted field can be nonzero.

    The projection acts term by term.  A product term's ``P_0`` is zero unless,
    after the shift, for every axis ``q`` one of its sites is ``<= 0`` on
    every axis and has coordinate 0 on axis ``q``; otherwise both conditionings
    along that axis keep the same sites and the term's parts cancel.  With
    ``t = -i`` this says ``t`` is the coordinatewise max of the term's sites
    that lie below it, i.e. a join of a nonempty subset of the term's sites.
    The candidates are the union of these joins over the terms, in the order of
    the product of the negated window coordinates of each axis (each axis
    descending).
    """
    live: set[Site] = set()
    for _, factors in f.terms:
        joins: set[Site] = set()
        for s in {fac.site for fac in factors}:
            joins |= {tuple(map(max, s, t)) for t in joins}
            joins.add(s)
        live |= joins
    return [tuple(-c for c in t) for t in sorted(live)]


OriginProjections = list[tuple[Site, FiniteRangeFunctional]]


def origin_projections(f: FiniteRangeFunctional) -> OriginProjections:
    """``(i, P_0(f.shift(i)))`` for every kernel shift candidate ``i``, in candidate order.

    Only the candidates are projected: at every other shift the projection is
    zero as a function (projecting there anyway can leave a rounding residue
    far below the Hannan drop threshold).  One :func:`project_each` pass projects
    ``f`` at every ``-i``, sharing axis prefixes, and each result is shifted by
    ``i``: projections commute with shifts bit for bit.
    """
    shifts = kernel_shift_candidates(f)
    projected = project_each(f, [tuple(-c for c in i) for i in shifts]).values()
    return [(i, p.shift(i)) for i, p in zip(shifts, projected)]


def kernel_sum(
    f: FiniteRangeFunctional, projections: OriginProjections | None = None
) -> FiniteRangeFunctional:
    """The exact finite sum of origin projections over all shifts of ``f``.

    For finite-range inputs this is the martingale kernel generating the
    approximating orthomartingale.  ``projections`` is
    :func:`origin_projections` of ``f`` when the caller already has it.  The
    projections are added in candidate order by :func:`signed_sum`, in one
    merge: the same left fold, bit for bit, as adding them one at a time.
    """
    if projections is None:
        projections = origin_projections(f)
    return signed_sum(f.law, f.dim, ((1, p) for _, p in projections))


@dataclass(frozen=True)
class ProjectionIdentityReport:
    """Max violations observed across the projection identity suite."""

    commutation: float
    orthogonality: float
    annihilation: float
    idempotence: float
    pairs_checked: int

    @property
    def max_violation(self) -> float:
        return max(self.commutation, self.orthogonality, self.annihilation, self.idempotence)


def projection_identity_report(
    f: FiniteRangeFunctional,
    g: FiniteRangeFunctional,
    indices: Iterable[Site],
) -> ProjectionIdentityReport:
    """Check commutation, orthogonality, annihilation, and idempotence of projections.

    For every ordered pair of distinct indices ``i, j`` from ``indices``:
    ``<P_i f, P_j g> = 0`` and ``P_i (P_j f) = 0``; line projections along
    different axes commute; and the full projection is idempotent at each
    index.
    """
    idx = [tuple(int(c) for c in i) for i in indices]
    proj_f = project_each(f, idx)
    proj_g = project_each(g, idx)

    # A commutator reads only the levels (i[q1], j[q2]): each distinct one is
    # checked once, and each line projection of ``f`` is built once.
    line = functools.cache(lambda q, level: project_line(f, q, level))

    commutation = 0.0
    commutators = {
        (q1, i[q1], q2, j[q2])
        for i, j in itertools.combinations(idx, 2)
        for q1, q2 in itertools.combinations(range(f.dim), 2)
    }
    for q1, l1, q2, l2 in sorted(commutators):
        a = project_line(line(q1, l1), q2, l2)
        b = project_line(line(q2, l2), q1, l1)
        commutation = max(commutation, a.deviation(b))

    orthogonality = 0.0
    pairs = 0
    for i, j in itertools.permutations(idx, 2):
        pairs += 1
        orthogonality = max(orthogonality, abs(proj_f[i].inner(proj_g[j])))

    annihilation = 0.0
    for j in idx:
        # P_i P_j f for every i != j; the i that agree on their first axes share a prefix.
        for p in project_each(proj_f[j], [i for i in idx if i != j]).values():
            annihilation = max(annihilation, p.deviation())

    idempotence = 0.0
    for i in idx:
        idempotence = max(idempotence, project_full(proj_f[i], i).deviation(proj_f[i]))

    return ProjectionIdentityReport(
        commutation=commutation,
        orthogonality=orthogonality,
        annihilation=annihilation,
        idempotence=idempotence,
        pairs_checked=pairs,
    )
