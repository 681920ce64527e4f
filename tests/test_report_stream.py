"""Guards for the dense-table writers behind ``describe`` and ``decompose``.

The reference below builds a dense section the row-by-row way -- one tuple per
configuration in ``itertools.product`` order, every cell formatted on its
own -- and serializes whole documents at once.  The package's writers must
produce the same bytes for JSON, for every CSV file and on stdout.
"""

import itertools
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthofield.cli import _table_section, main, resolve_config
from orthofield.dependence import martingale_kernel
from orthofield.functional import (
    INDICATOR,
    POWER,
    VALUE,
    Factor,
    FiniteRangeFunctional,
    ValueTable,
    _merge_terms,
)
from orthofield.innovation import InnovationLaw
from orthofield.report import Report, canonical_json, format_value

META = {"command": "describe", "seed": 7, "version": "0"}
PLAIN = ("totals", ["name", "value"], [("sigma2", 0.1 + 0.2), ("grid", (16, 16)), ("ok", True)])


# -- reference -------------------------------------------------------------------


def reference_rows(f):
    """One tuple per configuration: the site values, then the table value."""
    table = f.materialize()
    columns = [f"site {format_value(s)}" for s in table.sites] + ["value"]
    if not table.sites:
        return columns, [(float(table.values),)]
    rows = []
    for idx in itertools.product(range(f.law.size), repeat=len(table.sites)):
        rows.append(tuple(f.law.values[j] for j in idx) + (float(table.values[idx]),))
    return columns, rows


def reference_json(meta, sections):
    def cell(v):
        return format_value(v) if isinstance(v, (tuple, list)) else v

    doc = {
        "meta": meta,
        "sections": [
            {"name": name, "columns": columns, "rows": [[cell(v) for v in row] for row in rows]}
            for name, columns, rows in sections
        ],
    }
    return canonical_json(doc)


def reference_csv(meta, sections):
    files = {}
    lines = ["key,value"] + [f"{k},{format_value(v)}" for k, v in sorted(meta.items())]
    files["meta.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
    for name, columns, rows in sections:
        lines = [",".join(columns)] + [",".join(format_value(v) for v in row) for row in rows]
        files[f"{name}.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
    return files


def assert_matches_reference(f, name="kernel_table"):
    report = Report(meta=dict(META))
    plain = report.section(PLAIN[0], PLAIN[1])
    for row in PLAIN[2]:
        plain.add(*row)
    _table_section(report, name, f)
    sections = [PLAIN, (name, *reference_rows(f))]

    expected_json = reference_json(META, sections)
    assert report.to_json_bytes() == expected_json
    with tempfile.TemporaryDirectory() as tmp:
        json_paths = report.write(Path(tmp) / "json", "json")
        assert [p.name for p in json_paths] == ["report.json"]
        assert json_paths[0].read_bytes() == expected_json
        csv_paths = report.write(Path(tmp) / "csv", "csv")
        expected_csv = reference_csv(META, sections)
        assert [p.name for p in csv_paths] == list(expected_csv)
        for path in csv_paths:
            assert path.read_bytes() == expected_csv[path.name]


# -- strategies ----------------------------------------------------------------


@st.composite
def laws(draw):
    k = draw(st.integers(2, 6))
    values = draw(
        st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=k, max_size=k, unique=True)
    )
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    probs = [w / total for w in weights]
    return InnovationLaw(tuple(values), tuple(probs))


@st.composite
def functionals(draw):
    """Random term lists on 2-6 atoms in d = 1-2, windows of at most four sites."""
    law = draw(laws())
    dim = draw(st.integers(1, 2))
    low = -3 if dim == 1 else -1
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.floats(-2.0, 2.0, allow_nan=False))
        factors = []
        for _ in range(draw(st.integers(0, 3))):
            site = tuple(draw(st.integers(low, 0)) for _ in range(dim))
            kind = draw(st.sampled_from((VALUE, INDICATOR, POWER)))
            if kind == VALUE:
                factors.append(Factor(site))
            elif kind == INDICATOR:
                factors.append(Factor(site, INDICATOR, draw(st.sampled_from(law.values))))
            else:
                factors.append(Factor(site, POWER, draw(st.integers(0, 3))))
        terms.append((coeff, factors))
    return FiniteRangeFunctional(law, dim, _merge_terms(terms))


# -- properties and cases ------------------------------------------------------------


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=functionals())
def test_dense_sections_match_the_row_by_row_writer(f):
    assert_matches_reference(f)


def test_scalar_table_matches_the_row_by_row_writer():
    law = InnovationLaw((-1.0, 0.5, 2.0), (0.2, 0.3, 0.5))
    f = FiniteRangeFunctional(law, 2, _merge_terms([(0.1 + 0.2, [])]))
    assert f.materialize().sites == ()
    assert_matches_reference(f, name="component_0")


class FixedTable:
    """A functional stand-in whose dense table is given, such as one holding ``-0.0``."""

    def __init__(self, table):
        self.law = table.law
        self.window = table.sites
        self._table = table

    def materialize(self):
        return self._table


@pytest.mark.parametrize(
    "sites, values",
    [
        ((), np.array(-0.0)),
        (((-1,), (0,)), np.array([[-0.0, 0.0, 1e-300], [-2.5e17, 0.1 + 0.2, -0.0], [1.0, -1.0, 5e-324]])),
    ],
)
def test_negative_zero_values_match_the_row_by_row_writer(sites, values):
    law = InnovationLaw((-1.5, 0.0, 0.7), (0.2, 0.3, 0.5))
    assert_matches_reference(FixedTable(ValueTable(sites, law, values)))


def test_row_count_off_the_chunk_grid_matches_the_row_by_row_writer():
    # 3 atoms on 9 sites: 19683 rows, more than one chunk and not a multiple of it.
    law = InnovationLaw((-1.0, 0.5, 2.0), (0.2, 0.3, 0.5))
    terms = [(0.1 * (s + 1), [Factor((-s,))]) for s in range(9)]
    terms.append((0.3, [Factor((0,)), Factor((-8,), INDICATOR, 0.5)]))
    f = FiniteRangeFunctional(law, 1, _merge_terms(terms))
    assert f.materialize().values.size == 19683
    assert_matches_reference(f)


def test_write_memory_does_not_grow_with_the_row_count(tmp_path):
    peaks = {}
    for n in (7, 8, 9):
        f = resolve_config({"functional": f"counterexample:{n}"}).functional
        report = Report(meta=dict(META))
        _table_section(report, "kernel_table", martingale_kernel(f).d0)
        tracemalloc.start()
        try:
            report.write(tmp_path / str(n), "json")
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] < 4 * 2**20
    assert peaks[9] - peaks[7] < 2**20


def test_describe_stdout_equals_report_json(tmp_path, capsysbinary):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"functional": "counterexample:4"}')
    assert main(["describe", "--config", str(cfg)]) == 0
    stdout = capsysbinary.readouterr().out
    assert main(["describe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert stdout == (tmp_path / "out" / "report.json").read_bytes()
    assert stdout.startswith(b'{"meta":') and stdout.endswith(b"]}\n")
