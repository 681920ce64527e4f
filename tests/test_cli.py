import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from orthofield import cli, coboundary
from orthofield.cli import main, resolve_config, ConfigError
from orthofield.counterexample import comparison_report
from orthofield.dependence import martingale_kernel
from orthofield.functional import FiniteRangeFunctional
from orthofield.montecarlo import MAX_PATH_VALUES, MAX_SAMPLE_CELLS


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(tmp_path, args, name="out"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return rc, report


def section(report, name):
    for sec in report["sections"]:
        if sec["name"] == name:
            return sec
    raise KeyError(name)


def totals_of(report):
    return {row[0]: row[1] for row in section(report, "totals")["rows"]}


def test_describe_linear_builtin(tmp_path):
    cfg = write_config(tmp_path, {"dimension": 1, "functional": {"builtin": "linear", "a": 0.5}})
    rc, report = run_json(tmp_path, ["describe", "--config", cfg])
    assert rc == 0
    totals = totals_of(report)
    assert totals["hannan_total"] == pytest.approx(1.5)
    assert totals["sigma2"] == pytest.approx(2.25)


def test_describe_identity_builtin(tmp_path):
    cfg = write_config(tmp_path, {"dimension": 2, "functional": "identity"})
    rc, report = run_json(tmp_path, ["describe", "--config", cfg])
    assert rc == 0
    assert totals_of(report)["sigma2"] == pytest.approx(1.0)


def test_describe_counterexample_builtin(tmp_path):
    cfg = write_config(tmp_path, {"dimension": 1, "functional": "counterexample:3"})
    rc, report = run_json(tmp_path, ["describe", "--config", cfg])
    assert rc == 0
    expected = math.sqrt(1 + 0.25 + 1.0 / 9.0)
    assert totals_of(report)["hannan_total"] == pytest.approx(expected, abs=1e-12)


def test_decompose_telescope(tmp_path):
    cfg = write_config(tmp_path, {"dimension": 1, "functional": "telescope", "order": 2})
    rc, report = run_json(tmp_path, ["decompose", "--config", cfg])
    assert rc == 0
    summary = {row[0]: row[1] for row in section(report, "summary")["rows"]}
    assert summary["residual"] <= 1e-10
    assert summary["martingale_violation"] <= 1e-10
    # transfer-only component is the lagged innovation: table -1 -> -1, 1 -> 1
    rows = section(report, "component_0")["rows"]
    assert rows == [[-1.0, -1.0], [1.0, 1.0]]


def test_decompose_identity_keeps_martingale_part(tmp_path):
    cfg = write_config(tmp_path, {"dimension": 1, "functional": "identity", "order": 1})
    rc, report = run_json(tmp_path, ["decompose", "--config", cfg])
    assert rc == 0
    assert section(report, "component_1")["rows"] == [[-1.0, -1.0], [1.0, 1.0]]
    assert section(report, "component_0")["rows"] == [[0.0]]


def test_decompose_term_list_with_auto_center(tmp_path):
    doc = {
        "dimension": 2,
        "functional": {
            "terms": [
                {"coeff": 1.0, "factors": [{"site": [0, 0]}]},
                {
                    "coeff": -0.7,
                    "factors": [
                        {"site": [-1, 0], "kind": "indicator", "arg": 1.0},
                        {"site": [0, -1]},
                    ],
                },
            ]
        },
        "order": 2,
        "auto_center": True,
    }
    cfg = write_config(tmp_path, doc)
    rc, report = run_json(tmp_path, ["decompose", "--config", cfg])
    assert rc == 0
    summary = {row[0]: row[1] for row in section(report, "summary")["rows"]}
    assert summary["residual"] <= 1e-9


def test_verify_clt_small_run(tmp_path):
    doc = {
        "dimension": 2,
        "functional": {"builtin": "linear", "a": 0.5},
        "grids": [[8, 8], [16, 16]],
        "replicates": 250,
        "seed": 99,
    }
    cfg = write_config(tmp_path, doc)
    rc, report = run_json(tmp_path, ["verify-clt", "--config", cfg])
    assert rc == 0
    assert report["meta"]["sigma2"] == pytest.approx(2.25)
    for name in ("ks", "variance", "covariance", "gap", "gap_trend"):
        assert section(report, name)["rows"]


def test_verify_clt_rejects_degenerate(tmp_path):
    cfg = write_config(tmp_path, {"dimension": 1, "functional": "telescope"})
    rc = main(["verify-clt", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 1


def test_counterexample_command_csv(tmp_path):
    cfg = write_config(tmp_path, {"truncations": [2, 4]})
    out = tmp_path / "ce"
    rc = main(["counterexample", "--config", cfg, "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = (out / "truncations.csv").read_text().splitlines()
    assert lines[0] == "n_max,hannan_total,hannan_bound,delta_total,delta_lower_bound,mode,lower_bound_ok"
    assert len(lines) == 3
    growth = (out / "growth.csv").read_text().splitlines()
    assert growth[1].startswith("2,")


def test_counterexample_truncations_flag(tmp_path):
    rc, report = run_json(tmp_path, ["counterexample", "--truncations", "2,3"])
    assert rc == 0
    rows = section(report, "truncations")["rows"]
    assert [row[0] for row in rows] == [2, 3]


def test_selftest_passes_and_negative_control(tmp_path):
    rc, report = run_json(tmp_path, ["selftest"], name="ok")
    assert rc == 0
    assert all(row[-1] for row in section(report, "suites")["rows"])
    rc_bad, report_bad = run_json(
        tmp_path, ["selftest", "--tolerance", "1e-30"], name="bad"
    )
    assert rc_bad == 3
    assert any(not row[-1] for row in section(report_bad, "suites")["rows"])


def test_selftest_reports_are_reproducible(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["selftest", "--seed", "77", "--out", str(out1)]) == 0
    assert main(["selftest", "--seed", "77", "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_invalid_config_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dimension": 9})
    assert main(["describe", "--config", cfg]) == 1
    assert "dimension" in capsys.readouterr().err
    cfg2 = write_config(tmp_path, {"mystery": 1}, name="c2.json")
    assert main(["describe", "--config", cfg2]) == 1
    assert "mystery" in capsys.readouterr().err
    cfg3 = write_config(tmp_path, {"functional": {"builtin": "nope"}}, name="c3.json")
    assert main(["describe", "--config", cfg3]) == 1
    assert "functional" in capsys.readouterr().err


def test_cap_exceeded_exit_code(tmp_path):
    # a single product term over 30 sites: the kernel table cannot be enumerated
    doc = {
        "dimension": 1,
        "functional": {
            "terms": [
                {"coeff": 1.0, "factors": [{"site": [-k]} for k in range(30)]}
            ]
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["describe", "--config", cfg, "--out", str(tmp_path / "cap")]) == 2


def test_report_row_cap_exits_2_before_materializing(tmp_path, capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the table was materialized")

    # counterexample:10 has a 21-site kernel window: 2^21 rows, under the enumeration cap
    monkeypatch.setattr(FiniteRangeFunctional, "materialize", no_table)
    cfg = write_config(tmp_path, {"functional": "counterexample:10"})
    assert main(["describe", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "kernel_table" in err and str(2**21) in err
    assert not (tmp_path / "x").exists()


def test_report_row_cap_admits_counterexample_9():
    f = resolve_config({"functional": "counterexample:9"}).functional
    assert f.law.size ** len(martingale_kernel(f).d0.window) == 2**19 <= cli.MAX_REPORT_ROWS


def test_csv_requires_out(capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("selftest ran before the arguments were validated")

    monkeypatch.setattr(cli, "run_all", no_compute)
    assert main(["selftest", "--format", "csv"]) == 1
    assert "--out" in capsys.readouterr().err


def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("a suite ran before the tolerance was validated")

    monkeypatch.setattr(cli, "run_all", no_compute)
    # nan and inf used to be written into report.json, which then was not JSON;
    # -1 failed every row
    for value in ("nan", "inf", "-1"):
        out = tmp_path / value
        assert main(["selftest", "--tolerance", value, "--out", str(out)]) == 1
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()


def test_failed_verification_exits_3(tmp_path, capsys, monkeypatch):
    # a negative tolerance makes the reconstruction residual check fail
    monkeypatch.setattr(coboundary, "RESIDUAL_TOL", -1.0)
    cfg = write_config(tmp_path, {"dimension": 1, "functional": "telescope", "order": 2})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "reconstruction residual" in err and "exceeds -1" in err
    assert not (tmp_path / "x").exists()


def test_other_arithmetic_errors_are_not_config_errors(tmp_path, monkeypatch):
    def broken(cfg):
        raise ZeroDivisionError("a bug, not a configuration")

    monkeypatch.setitem(cli._COMMANDS, "describe", broken)
    with pytest.raises(ZeroDivisionError):
        main(["describe", "--out", str(tmp_path / "x")])


def test_oversized_grid_rejected_before_compute(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "sample_paths", no_compute)
    huge = write_config(tmp_path, {"dimension": 2, "grids": [[16, 16], [40000, 40000]]})
    for command in ("verify-clt", "describe"):
        assert main([command, "--config", huge, "--out", str(tmp_path / command)]) == 1
        assert "grids" in capsys.readouterr().err
    # the default grid 64^d is checked where it is sampled: verify-clt, not describe
    wide = write_config(tmp_path, {"dimension": 4}, name="wide.json")
    assert main(["verify-clt", "--config", wide, "--out", str(tmp_path / "v4")]) == 1
    assert "grids" in capsys.readouterr().err
    assert main(["describe", "--config", wide, "--out", str(tmp_path / "d4")]) == 0


def test_sampling_budget_admits_the_readme_configs():
    for dim, grid in ((1, 1024), (2, 128), (3, 64)):
        doc = {"dimension": dim, "functional": "linear", "grids": [[grid] * dim]}
        assert resolve_config(doc).grids == [(grid,) * dim]
    assert MAX_SAMPLE_CELLS < 2**31
    # the README 2-D verify-clt config, and the default paths in every dimension
    clt_2d = {"dimension": 2, "functional": "linear", "grids": [[128, 128]], "replicates": 2000}
    assert resolve_config(clt_2d).replicates == 2000
    for dim in range(1, 7):
        assert resolve_config({"dimension": dim}).t_resolution == 4


def test_path_budget_rejects_before_compute(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "sample_paths", no_compute)
    over = (
        ("t_resolution", {"dimension": 2, "t_resolution": 4096}),
        ("replicates", {"dimension": 1, "replicates": MAX_PATH_VALUES}),
    )
    for key, doc in over:
        cfg = write_config(tmp_path, doc, name=f"{key}.json")
        assert main(["verify-clt", "--config", cfg, "--out", str(tmp_path / key)]) == 1
        assert key in capsys.readouterr().err
        with pytest.raises(ConfigError, match=key):
            resolve_config(doc)
    # exactly at the budget is admitted
    assert resolve_config({"replicates": MAX_PATH_VALUES // 5}).replicates == MAX_PATH_VALUES // 5


def test_unusable_check_settings_reject_before_compute(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "sample_paths", no_compute)
    clt = {"dimension": 2, "grids": [[128, 128]], "replicates": 2000}
    bad = (
        ("ks_level", {**clt, "ks_level": 0.02}),
        # the default pairs read t = 0.5, which the grid {0, 1/3, 2/3, 1} lacks
        ("covariance_pairs", {**clt, "t_resolution": 3}),
        ("covariance_pairs", {**clt, "covariance_pairs": [[[0.3, 1.0], [1.0, 1.0]]]}),
    )
    for k, (key, doc) in enumerate(bad):
        cfg = write_config(tmp_path, doc, name=f"bad{k}.json")
        out = tmp_path / f"x{k}"
        assert main(["verify-clt", "--config", cfg, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()
    for level in (0.01, 0.05):
        assert resolve_config({"ks_level": level}).ks_level == level


def test_truncation_budget_rejects_before_compute(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("counterexample started")

    monkeypatch.setattr(cli, "comparison_report", no_compute)
    for depths in ("1000000000", "2,4097", "0,3", "-2", "1.5"):
        out = tmp_path / depths.replace(",", "_")
        assert main(["counterexample", "--truncations", depths, "--out", str(out)]) == 1
        assert "truncations" in capsys.readouterr().err
        assert not out.exists()
    # exactly at the budget is admitted, and repeated depths count once
    assert resolve_config({"truncations": [4096, 4096]}).truncations == [4096, 4096]
    with pytest.raises(ConfigError, match="truncations"):
        resolve_config({"truncations": [4096, 1]})


def test_argument_errors_exit_1(capsys):
    for argv in (["describe", "--bogus"], ["describe", "--format", "xml"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def failed_rows(report):
    return [
        row
        for sec in report["sections"]
        if sec["columns"][-1] == "pass"
        for row in sec["rows"]
        if row[-1] is False
    ]


def test_selftest_failures_are_named_on_stderr(tmp_path, capsys):
    rc, report = run_json(tmp_path, ["selftest", "--tolerance", "0"])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    rows = failed_rows(report)
    assert rows and len(lines) == len(rows)
    for line, row in zip(lines, rows):
        suite, check, violation = row[0], row[1], row[2]
        assert line.startswith(f"failed check: suites {suite} {check}: violation ")
        assert line.endswith("against bound 0")


def test_verify_clt_failures_are_named_on_stderr(tmp_path, capsys):
    # grids from large to small: the approximation gap grows, so the trend row fails
    doc = {
        "dimension": 1,
        "functional": {"builtin": "linear", "a": 0.5},
        "grids": [[256], [4]],
        "replicates": 200,
    }
    rc, report = run_json(tmp_path, ["verify-clt", "--config", write_config(tmp_path, doc)])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(failed_rows(report))
    assert "failed check: gap_trend grids 256 to 4: last_median " in "\n".join(lines)


def test_counterexample_failures_are_named_on_stderr(tmp_path, capsys, monkeypatch):
    def one_row_fails(n_list):
        rep = comparison_report(n_list)
        bad = dataclasses.replace(rep.rows[0], lower_bound_ok=False)
        return dataclasses.replace(rep, rows=(bad,) + rep.rows[1:])

    monkeypatch.setattr(cli, "comparison_report", one_row_fails)
    rc, _ = run_json(tmp_path, ["counterexample", "--truncations", "2,3"])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("failed check: truncations n_max 2: delta_total ")
    assert " against bound " in lines[0]


def test_non_numeric_config_values_name_the_field(tmp_path, capsys):
    cases = (
        ("replicates", "many"),
        ("seed", 1e400),
        ("dimension", None),
        ("grids", [[1e400]]),
        ("truncations", [2, 1e400]),
        ("ks_level", [0.01]),
        ("covariance_pairs", [5]),
        ("covariance_pairs", [[["x"], [1.0]]]),
        ("covariance_pairs", [[[1.0], [1.0], [1.0]]]),
        ("auto_center", "false"),
        ("auto_center", 1),
    )
    for key, value in cases:
        cfg = write_config(tmp_path, {key: value}, name=f"{key}.json")
        assert main(["describe", "--config", cfg]) == 1
        assert key in capsys.readouterr().err


def test_json_strings_are_not_arrays(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr(cli, "sample_paths", no_compute)
    monkeypatch.setattr(cli, "comparison_report", no_compute)
    clt = {"dimension": 2, "grids": [[16, 16]], "replicates": 200}
    cases = (
        # each string used to read as the list of its characters
        ("truncations", "counterexample", {"truncations": "123"}),
        ("law", "verify-clt", {**clt, "law": {"values": "12", "probs": [0.5, 0.5]}}),
        ("law", "verify-clt", {**clt, "law": {"values": [1.0, 2.0], "probs": "11"}}),
        ("grids", "verify-clt", {"dimension": 1, "grids": "6", "replicates": 200}),
        ("covariance_pairs", "verify-clt", {**clt, "covariance_pairs": [["05", "11"]]}),
    )
    for k, (key, command, doc) in enumerate(cases):
        cfg = write_config(tmp_path, doc, name=f"bad{k}.json")
        out = tmp_path / f"x{k}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_integer_fields_reject_non_integers(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr(cli, "sample_paths", no_compute)
    monkeypatch.setattr(cli, "comparison_report", no_compute)
    monkeypatch.setattr(cli, "dependence_profile", no_compute)
    clt = {"dimension": 2, "grids": [[16, 16]], "replicates": 200}

    def terms(factor):
        return {"terms": [{"coeff": 1.0, "factors": [factor]}]}

    cases = (
        # each of these used to be truncated (or read as 0 or 1) without a word
        ("dimension", "verify-clt", {**clt, "dimension": 2.9}),
        ("dimension", "verify-clt", {"dimension": True, "grids": [[16]], "replicates": 200}),
        ("replicates", "verify-clt", {**clt, "replicates": 500.5}),
        ("t_resolution", "verify-clt", {**clt, "t_resolution": 2.5}),
        ("order", "verify-clt", {**clt, "order": 2.5}),
        ("seed", "verify-clt", {**clt, "seed": 1.5}),
        ("truncations", "counterexample", {"truncations": [1.5]}),
        ("grids", "verify-clt", {**clt, "grids": [16.7]}),
        ("grids", "verify-clt", {**clt, "grids": [[16, 16.7]]}),
        ("functional", "verify-clt", {**clt, "functional": terms({"site": [0.5, 1]})}),
        (
            "functional",
            "verify-clt",
            {**clt, "functional": terms({"site": [0, 0], "kind": "power", "arg": 2.5})},
        ),
        (
            "functional",
            "verify-clt",
            {**clt, "functional": {"builtin": "counterexample", "n_max": 2.5}},
        ),
        # strings of digits used to read as the integers they spell
        ("dimension", "verify-clt", {**clt, "dimension": "2"}),
        ("replicates", "verify-clt", {**clt, "replicates": "300"}),
        ("grids", "verify-clt", {**clt, "grids": [["16", 16]]}),
        (
            "functional",
            "verify-clt",
            {**clt, "functional": {"builtin": "counterexample", "n_max": "2"}},
        ),
        # the suffix takes ASCII digits only: int() read these as 10, 5 and 5
        ("functional", "describe", {"functional": "counterexample:1_0"}),
        ("functional", "describe", {"functional": "counterexample: 5"}),
        ("functional", "describe", {"functional": "counterexample:\u0665"}),
    )
    for k, (key, command, doc) in enumerate(cases):
        cfg = write_config(tmp_path, doc, name=f"bad{k}.json")
        out = tmp_path / f"x{k}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()
    # a float with no fractional part is still an integer
    cfg = resolve_config({**clt, "replicates": 200.0, "grids": [16.0]})
    assert cfg.replicates == 200 and type(cfg.replicates) is int and cfg.grids == [(16, 16)]


def test_term_lists_read_only_their_wire_format(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr(cli, "dependence_profile", no_compute)
    value_at_01 = [{"coeff": 1.0, "factors": [{"site": [0, 1]}]}]
    assert resolve_config({"dimension": 2, "functional": {"terms": value_at_01}}).functional
    cases = (
        # the site string used to read as the site (0, 1)
        [{"coeff": 1.0, "factors": [{"site": "01"}]}],
        # these three used to end in an AttributeError traceback
        "ab",
        [1],
        {"coeff": 1.0},
        [{"coeff": 1.0, "factors": "ab"}],
        [{"coeff": 1.0, "factors": [[0, 1]]}],
    )
    for k, terms in enumerate(cases):
        cfg = write_config(tmp_path, {"dimension": 2, "functional": {"terms": terms}}, f"t{k}.json")
        out = tmp_path / f"x{k}"
        assert main(["describe", "--config", cfg, "--out", str(out)]) == 1, terms
        assert capsys.readouterr().err.startswith("error: functional: ")
        assert not out.exists()


def test_seed_and_replicates_overrides(tmp_path):
    doc = {"dimension": 1, "functional": "identity", "grids": [[1024]], "replicates": 500, "seed": 1}
    cfg = write_config(tmp_path, doc)
    rc, report = run_json(
        tmp_path, ["verify-clt", "--config", cfg, "--seed", "42", "--replicates", "320"]
    )
    assert rc == 0
    assert report["meta"]["seed"] == 42
    assert section(report, "ks")["rows"][0][4] == 320


def test_seed_and_replicates_read_ascii_digits_in_range(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr(cli, "sample_paths", no_compute)
    doc = {"dimension": 1, "functional": "identity", "grids": [[64]], "replicates": 200}
    cases = (
        # int() read these as 10, 5 and 300
        ("seed", {}, ["--seed", "1_0"]),
        ("seed", {}, ["--seed", "\u0665"]),
        ("replicates", {}, ["--replicates", "3_00"]),
        ("replicates", {}, ["--replicates", "\u0663\u0660\u0660"]),
        ("replicates", {}, ["--replicates", "-5"]),
        # stream_key keeps the low 64 bits: -1 drew the streams of 2^64 - 1 and 2^64 those of 0
        ("seed", {}, ["--seed", "-1"]),
        ("seed", {}, ["--seed", str(2**64)]),
        ("seed", {"seed": -1}, []),
        ("seed", {"seed": 2**64}, []),
        ("seed", {"seed": 2**70}, []),
    )
    for k, (key, overrides, args) in enumerate(cases):
        cfg = write_config(tmp_path, {**doc, **overrides}, name=f"c{k}.json")
        out = tmp_path / f"x{k}"
        assert main(["verify-clt", "--config", cfg, *args, "--out", str(out)]) == 1, args
        assert capsys.readouterr().err.startswith(f"error: {key}: "), (overrides, args)
        assert not out.exists()
    assert resolve_config({**doc, "seed": 2**64 - 1}).seed == 2**64 - 1
    assert resolve_config({**doc, "seed": 0}).seed == 0


def test_builtin_names_are_exact(tmp_path, capsys):
    cfg = write_config(tmp_path, {"functional": "counterexample_oops"})
    assert main(["describe", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "unknown builtin" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert resolve_config({"functional": "counterexample"}).functional.terms


def test_resolve_config_defaults():
    cfg = resolve_config({})
    assert cfg.dimension == 1
    assert cfg.law.values == (-1.0, 1.0)
    with pytest.raises(ConfigError):
        resolve_config({"grids": [[0]]})
    with pytest.raises(ConfigError):
        resolve_config({"replicates": 0})


def test_readme_usage_lists_every_long_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    usage = re.search(r"```\n(orthofield <command>.*?)```", readme, re.S).group(1)
    documented = set(re.findall(r"--[a-z][a-z-]*", usage))
    parser = cli.build_parser()
    options = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
    assert documented == options - {"--help"}
