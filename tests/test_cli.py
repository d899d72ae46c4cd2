"""Command-line interface: formats, round-trips, exit codes, determinism."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from urysohn import get_problem, problems, register_problem
from urysohn.cli import run


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


def test_usage_error_exit_code(capture):
    code, _, err = capture(["converge", "--problem", "rpk-aks", "--n", "banana"])
    assert code == 1
    assert err.strip() != ""


def test_nonconvergence_exit_code(capture):
    code, _, err = capture(
        ["solve", "--problem", "rpk-aks", "--n", "10", "--max-iter", "1"]
    )
    assert code == 2
    assert "converge" in err.lower()


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
