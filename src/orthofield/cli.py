"""Command-line orchestration: declarative experiment configs, deterministic reports.

Subcommands: ``describe`` (dependence coefficients and the martingale kernel),
``decompose`` (verified coboundary components), ``verify-clt`` (seeded Monte
Carlo checks of the Gaussian limit), ``counterexample`` (dependence-condition
separation table), and ``selftest`` (the exact-identity suites).  Reports are
pure functions of (config, seed, version).

Exit codes: 0 success, 1 invalid configuration or arguments, 2 enumeration cap
or report row cap exceeded, 3 statistical or identity check failed (stderr names
each failed row).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, dataclass, fields
from math import inf, sqrt

from . import __version__
from .coboundary import VerificationError, center, check_order, decompose
from .counterexample import (
    MAX_TRUNCATION_WORK,
    CounterexampleRow,
    comparison_report,
    embed_diagonal,
    truncated_martingale,
)
from .dependence import dependence_profile, martingale_kernel
from .functional import FiniteRangeFunctional, from_terms, innovation_at, json_array, json_int
from .innovation import CapExceededError, InnovationLaw
from .lattice import unit
from .montecarlo import (
    MAX_PATH_VALUES,
    GapStatistic,
    sample_paths,
    sample_rect,
    uniform_grid,
)
from .report import DenseTable, Report, config_digest, format_value
from .stats import (
    KS_COEFFICIENTS,
    MIN_KS_SAMPLES,
    ks_test,
    moment_summary,
    normal_cdf,
    sheet_covariance_check,
)
from .suites import run_all
from .tolerances import SE_BOUND

DEFAULT_SEED = 20260809

# Dense rows one report section may hold: a describe or decompose table above
# it exits 2 before it is materialized (counterexample:9 writes 2^19 rows).
MAX_REPORT_ROWS = 2**20


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


@dataclass
class ExperimentConfig:
    dimension: int
    law: InnovationLaw
    functional: FiniteRangeFunctional
    grids: list[tuple[int, ...]]
    replicates: int
    seed: int
    t_resolution: int
    order: int
    auto_center: bool
    ks_level: float
    truncations: list[int]
    covariance_pairs: list[tuple[tuple[float, ...], tuple[float, ...]]]
    doc: dict


# The keys a config file may set: every field but the derived ``doc``.
_KNOWN_KEYS = {field.name for field in fields(ExperimentConfig)} - {"doc"}


def _builtin_functional(name: str, params: dict, law: InnovationLaw, dim: int):
    base, colon, depth = name.partition(":")
    if base == "counterexample":
        if colon:
            n_max = _parse("functional", _digits, depth)
        else:
            n_max = json_int(params.get("n_max", 3))
        f = truncated_martingale(n_max, law)
        return embed_diagonal(f, dim) if dim > 1 else f
    origin = (0,) * dim
    if name == "identity":
        return innovation_at(law, origin)
    if name == "linear":
        a = float(params.get("a", 0.5))
        back = tuple(-c for c in unit(dim, 0))
        return innovation_at(law, origin) + a * innovation_at(law, back)
    if name == "telescope":
        back = tuple(-c for c in unit(dim, 0))
        return innovation_at(law, back) - innovation_at(law, origin)
    raise ConfigError(f"functional: unknown builtin {name!r}")


def _digits(text: str) -> int:
    """ASCII digits as an integer; ``int`` would also read ``1_0``, `` 5`` and other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("need ASCII digits")
    return int(text)


def _parse(key: str, convert, value):
    """``convert(value)``, with a conversion failure reported against ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {value!r}: {exc}") from exc


def _check_sampling_budget(f: FiniteRangeFunctional, grids) -> None:
    """Reject grids whose sampled region (grid plus window margin) exceeds the cell budget."""
    for n in grids:
        try:
            sample_rect(f, n)
        except ValueError as exc:
            raise ConfigError(f"grids: {exc}") from exc


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping and build the experiment objects."""
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    dim = _parse("dimension", json_int, raw.get("dimension", 1))
    if not 1 <= dim <= 6:
        raise ConfigError(f"dimension: must be between 1 and 6, got {dim}")

    law_doc = raw.get("law", {"values": [-1.0, 1.0], "probs": [0.5, 0.5]})
    try:
        law = InnovationLaw(
            tuple(json_array(law_doc["values"])), tuple(json_array(law_doc["probs"]))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"law: {exc}") from exc

    spec = raw.get("functional", "identity")
    try:
        if isinstance(spec, str):
            f = _builtin_functional(spec, {}, law, dim)
        elif isinstance(spec, dict) and "builtin" in spec:
            f = _builtin_functional(spec["builtin"], spec, law, dim)
        elif isinstance(spec, dict) and "terms" in spec:
            f = from_terms(law, dim, spec["terms"])
        else:
            raise ConfigError("functional: need a builtin name or a term list")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"functional: {exc}") from exc

    grids_doc = _parse("grids", json_array, raw.get("grids", [[64] * dim]))
    grids = []
    for g in grids_doc:
        n = _parse(
            "grids",
            lambda v: tuple(map(json_int, v if isinstance(v, (list, tuple)) else [v] * dim)),
            g,
        )
        if len(n) != dim or any(c < 1 for c in n):
            raise ConfigError(f"grids: bad grid {g} for dimension {dim}")
        grids.append(n)
    if not grids:
        raise ConfigError("grids: need at least one grid")
    if "grids" in raw:  # verify-clt, the only command that samples, also checks the default
        _check_sampling_budget(f, grids)

    replicates = _parse("replicates", json_int, raw.get("replicates", 500))
    if replicates < 1:
        raise ConfigError("replicates: must be positive")
    seed = _parse("seed", json_int, raw.get("seed", DEFAULT_SEED))
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed: must be in [0, 2^64), got {seed}")
    t_resolution = _parse("t_resolution", json_int, raw.get("t_resolution", 4))
    if t_resolution < 1:
        raise ConfigError("t_resolution: must be at least 1")
    path_values = replicates * (t_resolution + 1) ** dim
    if path_values > MAX_PATH_VALUES:
        raise ConfigError(
            f"replicates, t_resolution: {replicates} paths at {t_resolution + 1}^{dim} times "
            f"hold {path_values} values, above the budget of {MAX_PATH_VALUES}"
        )
    order = _parse("order", json_int, raw.get("order", 2))
    if order < 1:
        raise ConfigError("order: must be a positive integer")
    auto_center = raw.get("auto_center", False)
    if not isinstance(auto_center, bool):
        raise ConfigError(f"auto_center: need true or false, got {auto_center!r}")
    ks_level = _parse("ks_level", float, raw.get("ks_level", 0.01))
    if ks_level not in KS_COEFFICIENTS:
        raise ConfigError(f"ks_level: must be one of {sorted(KS_COEFFICIENTS)}, got {ks_level}")
    truncations = _parse(
        "truncations",
        lambda v: [json_int(n) for n in json_array(v)],
        raw.get("truncations", [2, 3, 4, 5]),
    )
    if any(n < 1 for n in truncations):
        raise ConfigError(f"truncations: depths must be at least 1, got {truncations}")
    work = sum(n * n for n in set(truncations))
    if work > MAX_TRUNCATION_WORK:
        raise ConfigError(
            f"truncations: the squares of the depths {sorted(set(truncations))} sum to "
            f"{work}, above the budget of {MAX_TRUNCATION_WORK}"
        )

    pairs_doc = raw.get("covariance_pairs")
    if pairs_doc is None:
        half = (0.5,) + (1.0,) * (dim - 1)
        cross = (1.0, 0.5)[: min(dim, 2)] + (1.0,) * max(dim - 2, 0)
        pairs = [(half, cross), ((1.0,) * dim, (1.0,) * dim)]
    else:
        pairs = _parse(
            "covariance_pairs",
            lambda v: [
                (tuple(map(float, json_array(s))), tuple(map(float, json_array(t))))
                for s, t in json_array(v)
            ],
            pairs_doc,
        )
        if any(len(time) != dim for pair in pairs for time in pair):
            raise ConfigError(f"covariance_pairs: need times of dimension {dim}, got {pairs}")

    values = dict(
        dimension=dim, law=law, functional=f, grids=grids, replicates=replicates, seed=seed,
        t_resolution=t_resolution, order=order, auto_center=auto_center, ks_level=ks_level,
        truncations=truncations, covariance_pairs=pairs,
    )
    # The digested document: the resolved values, with the law and the
    # functional as the config states them (tuples and lists print alike).
    doc = {
        **values,
        "law": {"values": list(law.values), "probs": list(law.probs)},
        "functional": spec,
    }
    return ExperimentConfig(**values, doc=doc)


def _new_report(cfg: ExperimentConfig, command: str) -> Report:
    return Report(
        meta={
            "command": command,
            "config_sha256": config_digest(cfg.doc),
            "seed": cfg.seed,
            "version": __version__,
        }
    )


def _table_section(report: Report, name: str, f: FiniteRangeFunctional) -> None:
    """Emit the dense value table of a functional as one section."""
    rows = f.law.size ** len(f.window)
    if rows > MAX_REPORT_ROWS:
        raise CapExceededError(
            f"{name}: {f.law.size}^{len(f.window)} = {rows} dense rows exceed "
            f"the report cap {MAX_REPORT_ROWS}"
        )
    table = f.materialize()
    columns = [f"site {format_value(s)}" for s in table.sites] + ["value"]
    report.section(name, columns, DenseTable(f.law.values, len(table.sites), table.values))


def _report_failure(section: str, row: str, statistic: str, value: float, bound: float) -> None:
    """Name one failed report row on stderr: section, row, statistic and its bound."""
    print(
        f"failed check: {section} {row}: {statistic} {format_value(value)} "
        f"against bound {format_value(bound)}",
        file=sys.stderr,
    )


def cmd_describe(cfg: ExperimentConfig) -> tuple[Report, int]:
    profile = dependence_profile(cfg.functional)
    report = _new_report(cfg, "describe")

    window = report.section("window", ["site"])
    for s in cfg.functional.window:
        window.add(s)

    for name, terms in (
        ("hannan", profile.hannan_terms),
        ("delta", profile.delta_terms),
        ("wm", profile.wm_terms),
    ):
        sec = report.section(name, ["index", "value"])
        for site in sorted(terms):
            sec.add(site, terms[site])

    totals = report.section("totals", ["name", "value"])
    totals.add("hannan_total", profile.hannan_total)
    totals.add("delta_total", profile.delta_total)
    totals.add("wm_total", profile.wm_total)
    totals.add("sigma2", profile.sigma2)

    _table_section(report, "kernel_table", profile.kernel.d0)
    return report, 0


def cmd_decompose(cfg: ExperimentConfig) -> tuple[Report, int]:
    f = cfg.functional
    if cfg.auto_center and not check_order(f, cfg.order):
        f = center(f, cfg.order)
    parts = decompose(f, cfg.order)
    report = _new_report(cfg, "decompose")

    summary = report.section("summary", ["name", "value"])
    summary.add("order", parts.order)
    summary.add("residual", parts.residual)
    summary.add("kernel_residual", parts.kernel_residual)
    summary.add("martingale_violation", parts.martingale_violation)

    axes_sec = report.section("components", ["mask", "martingale_axes", "terms"])
    for mask in sorted(parts.components):
        axes = [q for q in range(parts.dim) if mask >> q & 1]
        axes_sec.add(mask, tuple(axes), len(parts.components[mask].terms))
        _table_section(report, f"component_{mask}", parts.components[mask])
    return report, 0


def cmd_verify_clt(cfg: ExperimentConfig) -> tuple[Report, int]:
    f = cfg.functional
    if cfg.replicates < MIN_KS_SAMPLES:
        raise ConfigError(f"replicates: verify-clt needs at least {MIN_KS_SAMPLES} replicates")
    _check_sampling_budget(f, cfg.grids)
    t_grid = uniform_grid(cfg.dimension, cfg.t_resolution)
    off_grid = [list(t) for pair in cfg.covariance_pairs for t in pair if t not in t_grid]
    if off_grid:
        raise ConfigError(f"covariance_pairs: times {off_grid} are not on the t_resolution grid")
    kernel = martingale_kernel(f)
    if kernel.sigma2 <= 0.0:
        raise ConfigError("functional: degenerate limit (sigma2 is zero); use describe")
    sigma = sqrt(kernel.sigma2)
    report = _new_report(cfg, "verify-clt")
    report.meta["sigma2"] = kernel.sigma2
    failed = False

    ks_sec = report.section(
        "ks", ["grid", "statistic", "critical_value", "level", "sample_size", "pass"]
    )
    var_sec = report.section(
        "variance", ["grid", "mean", "var", "target", "se_var", "pass"]
    )
    cov_sec = report.section(
        "covariance", ["grid", "s", "t", "empirical", "target", "se", "deviation_se", "pass"]
    )
    gap_sec = report.section("gap", ["grid", "mean", "median", "q75", "max"])

    gap_medians = []
    for n in cfg.grids:
        paths = sample_paths(f, n, t_grid, cfg.replicates, cfg.seed, kernel=kernel)
        corner = paths.at((1.0,) * cfg.dimension)

        ks = ks_test(corner / sigma, normal_cdf, cfg.ks_level)
        grid = f"grid {format_value(n)}"
        ks_sec.add(n, ks.statistic, ks.critical_value, ks.level, ks.sample_size, ks.passed)
        if not ks.passed:
            failed = True
            _report_failure("ks", grid, "statistic", ks.statistic, ks.critical_value)

        moments = moment_summary(corner)
        var_dev = abs(moments.var - kernel.sigma2)
        var_bound = SE_BOUND * moments.se_var
        var_ok = var_dev <= var_bound
        var_sec.add(n, moments.mean, moments.var, kernel.sigma2, moments.se_var, var_ok)
        if not var_ok:
            failed = True
            _report_failure("variance", grid, "|var - target|", var_dev, var_bound)

        for row in sheet_covariance_check(paths, cfg.covariance_pairs, kernel.sigma2):
            cov_sec.add(
                n, row.s, row.t, row.empirical, row.target, row.se, row.deviation_se, row.within
            )
            if not row.within:
                failed = True
                _report_failure(
                    "covariance",
                    f"{grid} s {format_value(row.s)} t {format_value(row.t)}",
                    "|deviation_se|",
                    abs(row.deviation_se),
                    SE_BOUND,
                )

        gap = GapStatistic.of(n, paths.gaps.tolist())
        gap_sec.add(n, gap.mean, gap.median, gap.q75, gap.max)
        gap_medians.append(gap.median)

    trend = report.section("gap_trend", ["first_grid", "last_grid", "first_median", "last_median", "pass"])
    if len(cfg.grids) >= 2:
        ok = gap_medians[-1] < gap_medians[0] or gap_medians[0] == 0.0
        trend.add(cfg.grids[0], cfg.grids[-1], gap_medians[0], gap_medians[-1], ok)
        if not ok:
            failed = True
            _report_failure(
                "gap_trend",
                f"grids {format_value(cfg.grids[0])} to {format_value(cfg.grids[-1])}",
                "last_median",
                gap_medians[-1],
                gap_medians[0],
            )
    return report, 3 if failed else 0


def cmd_counterexample(cfg: ExperimentConfig) -> tuple[Report, int]:
    if not cfg.truncations:
        raise ConfigError("truncations: need at least one truncation depth")
    rep = comparison_report(cfg.truncations)
    report = _new_report(cfg, "counterexample")
    # The row's fields, in order, are the columns: reordering them changes the report bytes.
    sec = report.section("truncations", [field.name for field in fields(CounterexampleRow)])
    failed = False
    for row in rep.rows:
        sec.add(*astuple(row))
        if row.lower_bound_ok is False:
            failed = True
            _report_failure(
                "truncations",
                f"n_max {row.n_max}",
                "delta_total",
                row.delta_total,
                row.delta_lower_bound,
            )
    growth = report.section("growth", ["n_max", "ratio"])
    for n in sorted(rep.growth_ratios):
        growth.add(n, rep.growth_ratios[n])
    return report, 3 if failed else 0


def cmd_selftest(cfg: ExperimentConfig, tolerance: float | None = None) -> tuple[Report, int]:
    if tolerance is not None and not 0.0 <= tolerance < inf:
        raise ConfigError(f"tolerance: must be finite and at least 0, got {tolerance}")
    checks = run_all(cfg.seed)
    report = _new_report(cfg, "selftest")
    if tolerance is not None:
        report.meta["tolerance_override"] = tolerance
    sec = report.section("suites", ["suite", "check", "violation", "tolerance", "pass"])
    failed = False
    for c in checks:
        tol = tolerance if tolerance is not None else c.tolerance
        ok = c.violation <= tol
        sec.add(c.suite, c.label, c.violation, tol, ok)
        if not ok:
            failed = True
            _report_failure("suites", f"{c.suite} {c.label}", "violation", c.violation, tol)
    return report, 3 if failed else 0


_COMMANDS = {
    "describe": cmd_describe,
    "decompose": cmd_decompose,
    "verify-clt": cmd_verify_clt,
    "counterexample": cmd_counterexample,
    "selftest": cmd_selftest,
}


def _load_raw_config(path: str | None) -> dict:
    if path is None:
        return {}
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors exit 1, the code of an invalid configuration (2 means cap exceeded)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="orthofield",
        description="Exact projection algebra and Monte Carlo checks for stationary random fields.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--seed", help="override the config seed")
    parser.add_argument("--out", help="output directory (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--replicates", help="override the config replicate count")
    parser.add_argument(
        "--truncations", help="comma-separated truncation depths for counterexample"
    )
    parser.add_argument(
        "--tolerance", type=float, help="override suite tolerances in selftest"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format == "csv" and not args.out:
        print("error: --format csv requires --out", file=sys.stderr)
        return 1
    try:
        raw = _load_raw_config(args.config)
        for key in ("seed", "replicates"):
            if getattr(args, key) is not None:
                raw[key] = _parse(key, _digits, getattr(args, key))
        if args.truncations is not None:
            raw["truncations"] = _parse(
                "truncations", lambda v: [_digits(n) for n in v.split(",") if n], args.truncations
            )
        cfg = resolve_config(raw)
        if args.command == "selftest":
            report, code = cmd_selftest(cfg, tolerance=args.tolerance)
        else:
            report, code = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: failed check: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        report.write(args.out, args.format)
    else:
        report.stream_json(sys.stdout.buffer)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
