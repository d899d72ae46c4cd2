"""Command-line interface: formats, round-trips, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from urysohn import bbar, convergence_study, get_problem, problems, register_problem
from urysohn.cli import format_report, run

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def capture(capsys):
    def invoke(argv):
        code = run(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


def test_problems_subcommand_lists_builtin(capture):
    code, out, _ = capture(["problems"])
    assert code == 0
    assert "rpk-aks" in out


def test_unknown_problem_exit_code(capture):
    code, _, err = capture(["solve", "--problem", "nope", "--n", "10"])
    assert code == 3
    assert "nope" in err


def test_module_entry_point_prints_and_exits_as_run_does(capture):
    # main() through the module's __main__ call; the console script runs the same main()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def child(argv):
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "urysohn.cli", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )

    argv = ["converge", "--problem", "rpk-aks", "--r", "1", "--n", "10,20,40", "--format", "md"]
    result = child(argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == capture(argv)[1]
    assert child(["solve", "--problem", "nope", "--n", "4"]).returncode == 3


def test_usage_error_exit_code(capture):
    for ladder, named in (("banana", "integers"), (",", "at least one value")):
        code, out, err = capture(["converge", "--problem", "rpk-aks", "--n", ladder])
        assert (code, out) == (1, "")
        assert named in err


def test_nonconvergence_exit_code(capture):
    code, _, err = capture(
        ["solve", "--problem", "rpk-aks", "--n", "10", "--max-iter", "1"]
    )
    assert code == 2
    assert "converge" in err.lower()


def test_unknown_report_format_is_rejected():
    report = convergence_study(get_problem("rpk-aks"), 1, [2])
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        format_report(report, "xml")


def test_missing_required_flag_is_usage_error(capture):
    code, _, _ = capture(["solve", "--n", "10"])
    assert code == 1


def test_solve_csv_schema(capture):
    code, out, _ = capture(
        ["solve", "--problem", "rpk-aks", "--n", "10", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "z_S", "eps_S"]
    assert len(rows) == 12  # header + 11 partition points
    t_col = [float(r[0]) for r in rows[1:]]
    np.testing.assert_allclose(t_col, np.linspace(0, 1, 11), atol=1e-12)


def test_converge_csv_schema_and_empty_order_fields(capture):
    code, out, _ = capture(
        ["converge", "--problem", "rpk-aks", "--n", "5,10", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "eps_S", "order_S", "eps_EX", "order_EX"]
    assert len(rows) == 7  # header + 6 coarse partition points
    # orders of the extrapolated column need three levels; all empty here
    assert all(r[4] == "" for r in rows[1:])
    # boundary rows have zero error but still well-formed scientific fields
    assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-13)


def test_csv_round_trip_is_byte_identical(capture):
    code, first, _ = capture(
        ["converge", "--problem", "rpk-aks", "--n", "5,10,20", "--format", "csv"]
    )
    assert code == 0

    # Parse every numeric field and re-render with the CLI's own format.
    rows = list(csv.reader(io.StringIO(first)))
    rebuilt = [",".join(rows[0])]
    for row in rows[1:]:
        out_fields = [row[0]]
        for field in row[1:]:
            out_fields.append("" if field == "" else "%.8e" % float(field))
        rebuilt.append(",".join(out_fields))
    assert first == "\n".join(rebuilt) + "\n"


def test_identical_configs_produce_identical_bytes(capture):
    argv = ["converge", "--problem", "rpk-aks", "--n", "5,10", "--format", "csv"]
    _, out1, _ = capture(argv)
    _, out2, _ = capture(argv)
    assert out1 == out2

    argv_md = ["converge", "--problem", "rpk-aks", "--n", "5,10", "--format", "md"]
    _, md1, _ = capture(argv_md)
    _, md2, _ = capture(argv_md)
    assert md1 == md2


def test_json_report_carries_metadata_and_levels(capture):
    code, out, _ = capture(
        ["converge", "--problem", "rpk-aks", "--n", "5,10", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"] == "rpk-aks"
    assert doc["r"] == 1
    assert [lev["n"] for lev in doc["levels"]] == [5, 10]
    assert [lev["m"] for lev in doc["levels"]] == [25, 100]
    for solve in doc["metadata"]["solves"]:
        assert solve["wall_time_seconds"] > 0
        assert solve["newton_iterations"] >= 1
    # data rows never contain timing information
    for lev in doc["levels"]:
        assert "wall_time_seconds" not in lev


def test_json_data_rows_are_deterministic(capture):
    argv = ["converge", "--problem", "rpk-aks", "--n", "5,10", "--format", "json"]
    _, out1, _ = capture(argv)
    _, out2, _ = capture(argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("metadata")
    d2.pop("metadata")
    assert d1 == d2


def test_markdown_table_shape(capture):
    code, out, _ = capture(
        ["converge", "--problem", "rpk-aks", "--n", "10,20", "--format", "md"]
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("|")]
    assert lines[0].startswith("| t ")
    assert len(lines) == 13  # header, separator, 11 data rows


def test_output_file_option(tmp_path, capture):
    target = tmp_path / "report.csv"
    code, out, _ = capture(
        [
            "converge",
            "--problem",
            "rpk-aks",
            "--n",
            "5,10",
            "--format",
            "csv",
            "--output",
            str(target),
        ]
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("t,eps_S,order_S,eps_EX,order_EX\n")


@pytest.mark.parametrize(
    "command, n, target",
    [("solve", "4", "missing/x.csv"), ("converge", "4,8", ".")],
    ids=["missing-directory", "a-directory"],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capture, command, n, target):
    path = tmp_path / target
    code, out, err = capture(
        [command, "--problem", "rpk-aks", "--n", n, "--format", "csv", "--output", str(path)]
    )
    assert (code, out) == (1, "")
    assert err.startswith("urysohn: error:") and str(path) in err


def test_coeffs_subcommand_tokens(capture):
    code, out, _ = capture(["coeffs", "--r", "1"])
    assert code == 0
    assert "bbar[2,1]" in out
    assert "bbar[2,2]" in out
    assert "J2_integral" in out
    # the three r=1 constants have closed forms
    for token, value in (("bbar[2,1]", -1 / 12), ("bbar[2,2]", 1 / 12)):
        line = next(ln for ln in out.splitlines() if ln.startswith(token))
        assert float(line.split("=")[1]) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("r", [6, 13])
def test_coeffs_lists_bbar_for_the_tabulated_bernoulli_range(capture, r):
    # bbar[2r,p] needs B_{2r-p}, tabulated up to B_10, so p starts at max(1, 2r - 10)
    code, out, _ = capture(["coeffs", "--r", str(r)])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("bbar[")]
    expected = [f"bbar[{2 * r},{p}] = {bbar(r, p):.16e}" for p in range(2 * r - 10, 2 * r + 1)]
    assert lines == expected


def test_coeffs_requires_no_problem_flag(capture):
    # coeffs is about the approximation space only
    code, out, _ = capture(["coeffs", "--r", "2"])
    assert code == 0
    assert "bbar[4,1]" in out


def test_solve_fixed_refinement_flag(capture):
    code, out, _ = capture(
        [
            "solve",
            "--problem",
            "rpk-aks",
            "--n",
            "10",
            "--p",
            "fixed:2",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 20


@pytest.fixture()
def no_exact_problem(monkeypatch):
    monkeypatch.setattr(problems, "_REGISTRY", dict(problems._REGISTRY))
    name = "rpk-aks-without-exact"
    register_problem(dataclasses.replace(get_problem("rpk-aks"), name=name, exact=None))
    return name


def test_solve_layouts_without_exact_solution(capture, no_exact_problem):
    argv = ["solve", "--problem", no_exact_problem, "--n", "4", "--format"]
    code, out, _ = capture(argv + ["csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "z_S", "eps_S"]
    assert len(rows) == 6
    assert all(row[2] == "" for row in rows[1:])

    code, out, _ = capture(argv + ["md"])
    assert code == 0
    table = [ln for ln in out.splitlines() if ln.startswith("|")]
    assert table[:2] == ["| t | z_S |", "|---|-----|"]
    assert len(table) == 7
    assert all(row.count("|") == 3 for row in table)

    code, out, _ = capture(argv + ["json"])
    assert code == 0
    doc = json.loads(out)
    assert "eps_S" in doc and doc["eps_S"] is None
    assert len(doc["z_S"]) == 5


def test_converge_reports_a_bad_ladder_on_the_common_error_path(capture):
    code, out, err = capture(["converge", "--problem", "rpk-aks", "--n", "10,30"])
    assert code == 1
    assert out == ""
    assert "urysohn: error:" in err and "double" in err


@pytest.mark.parametrize("flag, value", [("--tol", "-1"), ("--tol", "nan")])
def test_converge_reports_a_bad_newton_tolerance_on_the_common_error_path(capture, flag, value):
    code, out, err = capture(
        ["converge", "--problem", "rpk-aks", "--n", "10,20", flag, value]
    )
    assert code == 1
    assert out == ""
    assert "urysohn: error:" in err and "tol" in err


@pytest.mark.parametrize("rule, r, p", [("pow", 1, 6), ("pow", 2, 36), ("fixed:7", 1, 7)])
def test_refinement_flag_sets_the_solver_p(capture, rule, r, p):
    code, out, _ = capture(
        ["solve", "--problem", "rpk-aks", "--n", "6", "--r", str(r), "--p", rule, "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["p"], doc["m"]) == (p, 6 * p)


@pytest.mark.parametrize("command, n", [("solve", "4"), ("converge", "4,8")])
@pytest.mark.parametrize(
    "rule, named",
    [("fixed:x", "refinement rule"), ("fixed:0", "p must be"), ("cube", "refinement rule")],
)
def test_bad_refinement_rules_are_usage_errors(capture, command, n, rule, named):
    code, out, err = capture([command, "--problem", "rpk-aks", "--n", n, "--p", rule])
    assert code == 1
    assert out == ""
    assert err.startswith("urysohn: error:") and named in err


# The md tables of the paper's two ladders, byte for byte.  md shows three
# significant digits, so these bytes do not depend on the order in which a
# sum is taken, while the nine-digit csv eps columns do.
_CONVERGE_MD = {
    ("1", "10,20,40"): """\
Iterated-solution errors for problem rpk-aks, r=1, n=10 (m=100)

| t | eps_S | order_S | eps_EX | order_EX |
|---|-------|---------|--------|----------|
| 0.00 | 0.00e+00 |  | 0.00e+00 |  |
| 0.10 | 9.09e-04 | 1.95 | 1.12e-05 | 3.91 |
| 0.20 | 8.81e-04 | 1.93 | 1.36e-05 | 3.92 |
| 0.30 | 6.35e-04 | 1.91 | 1.30e-05 | 3.93 |
| 0.40 | 3.79e-04 | 1.87 | 1.16e-05 | 3.93 |
| 0.50 | 1.73e-04 | 1.77 | 9.97e-06 | 3.94 |
| 0.60 | 2.89e-05 | 1.11 | 8.24e-06 | 3.94 |
| 0.70 | 5.51e-05 | 2.62 | 6.44e-06 | 3.95 |
| 0.80 | 8.43e-05 | 2.25 | 4.51e-06 | 3.95 |
| 0.90 | 6.44e-05 | 2.17 | 2.38e-06 | 3.95 |
| 1.00 | 0.00e+00 |  | 0.00e+00 |  |
""",
    ("2", "3,6,12"): """\
Iterated-solution errors for problem rpk-aks, r=2, n=3 (m=27)

| t | eps_S | order_S | eps_EX | order_EX |
|---|-------|---------|--------|----------|
| 0.00 | 0.00e+00 |  | 0.00e+00 |  |
| 0.33 | 1.04e-03 | 3.69 | 1.67e-05 | 5.13 |
| 0.67 | 4.88e-04 | 3.66 | 8.53e-06 | 5.28 |
| 1.00 | 0.00e+00 |  | 0.00e+00 |  |
""",
}


@pytest.mark.parametrize("r, n", sorted(_CONVERGE_MD))
def test_converge_md_bytes_of_the_paper_ladders(capture, r, n):
    code, out, _ = capture(["converge", "--problem", "rpk-aks", "--r", r, "--n", n, "--format", "md"])
    assert code == 0
    assert out == _CONVERGE_MD[r, n]
