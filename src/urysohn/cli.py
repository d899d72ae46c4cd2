"""Command-line front end: solve, converge, coeffs, problems.

Exit codes: 0 success, 1 usage error, 2 solver non-convergence,
3 unknown problem.  Output is deterministic for a fixed configuration;
wall-clock times appear only in the JSON metadata section, never in data
rows.  All output is plain text (no color codes).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .basis import bbar, bernoulli, j_k, j_square_integral
from .errors import ConvergenceError, UnknownProblemError
from .extrapolate import ConvergenceReport, convergence_study, refinement_for
from .galerkin import iterated_eval, minimal_rho, solve_discrete_galerkin
from .problems import available_problems, get_problem
from .quadrature import values_on

__all__ = ["run", "main", "format_report"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_UNKNOWN_PROBLEM = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems instead of exiting."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _sci(x) -> str:
    """Scientific notation with 9 significant digits; empty for absent."""
    return "" if x is None else f"{x:.8e}"


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise _UsageError(f"--n expects integers separated by commas, got {text!r}") from None
    if not values:
        raise _UsageError("--n must list at least one value")
    return values


def _write_table(fmt: str, columns, title: list, doc: dict) -> str:
    """Render one table as csv or md text, or ``doc`` as json text.

    ``columns`` lists (name, values, md_cell).  ``values`` is a list whose
    None entries are blank cells, or None for a column without data, which
    csv keeps with empty fields and md leaves out.  csv cells carry 9
    significant digits; md cells use the format spec ``md_cell`` and follow
    the ``title`` lines.
    """
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    size = len(columns[0][1])
    if fmt == "csv":
        cols = [[None] * size if values is None else values for _, values, _ in columns]
        lines = [",".join(name for name, _, _ in columns)]
        lines += [",".join(_sci(col[i]) for col in cols) for i in range(size)]
    elif fmt == "md":
        shown = [col for col in columns if col[1] is not None]
        lines = [
            *title,
            "| " + " | ".join(name for name, _, _ in shown) + " |",
            "|" + "|".join("-" * (len(name) + 2) for name, _, _ in shown) + "|",
        ]
        for i in range(size):
            cells = ["" if v[i] is None else format(v[i], cell) for _, v, cell in shown]
            lines.append("| " + " | ".join(cells) + " |")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def format_report(report: ConvergenceReport, fmt: str) -> str:
    """Serialize a ConvergenceReport as csv, md, or json text.

    csv and md show the coarsest level's table (the one for which errors,
    orders, and extrapolated columns are all defined when the ladder has
    three or more levels); json carries every level plus solve metadata.
    """
    levels = []
    metadata = []
    for level in report.levels:
        levels.append(
            {
                "n": level.n,
                "p": level.p,
                "m": level.m,
                "rho": level.rho,
                "t": level.points.tolist(),
                "z_S": level.z_s.tolist(),
                "eps_S": level.eps_s.tolist(),
                "order_S": list(level.order_s),
                "eps_EX": None if level.eps_ex is None else level.eps_ex.tolist(),
                "order_EX": None if level.order_ex is None else list(level.order_ex),
            }
        )
        metadata.append(
            {
                "n": level.n,
                "newton_iterations": level.newton_iterations,
                "final_residual_norm": level.final_residual_norm,
                "wall_time_seconds": level.wall_time,
            }
        )
    doc = {
        "problem": report.problem,
        "r": report.r,
        "levels": levels,
        "metadata": {"solves": metadata},
    }
    first = levels[0]
    blank = [None] * len(first["t"])
    columns = [
        ("t", first["t"], ".2f"),
        ("eps_S", first["eps_S"], ".2e"),
        ("order_S", first["order_S"], ".2f"),
        ("eps_EX", first["eps_EX"] or blank, ".2e"),
        ("order_EX", first["order_EX"] or blank, ".2f"),
    ]
    title = [
        f"Iterated-solution errors for problem {report.problem}, r={report.r}, "
        f"n={first['n']} (m={first['m']})",
        "",
    ]
    return _write_table(fmt, columns, title, doc)


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_common(sub, multi_n: bool):
    sub.add_argument("--problem", required=True, help="registered problem name")
    sub.add_argument("--r", type=int, default=1, help="local polynomial order (default 1)")
    if multi_n:
        sub.add_argument(
            "--n",
            required=True,
            help="comma-separated ladder of coarse interval counts, e.g. 20,40",
        )
    else:
        sub.add_argument("--n", type=int, required=True, help="coarse interval count")
    sub.add_argument(
        "--p",
        default="pow",
        help="refinement rule: 'pow' (p = n**r, default) or 'fixed:<p>'",
    )
    sub.add_argument("--rho", type=int, default=None, help="Gauss points per fine interval")
    sub.add_argument("--tol", type=float, default=1e-12, help="Newton tolerance")
    sub.add_argument("--max-iter", type=int, default=50, help="Newton iteration cap")
    sub.add_argument("--format", choices=("csv", "md", "json"), default="md")
    sub.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="urysohn", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("solve", help="solve at a single n"), multi_n=False)
    _add_common(subs.add_parser("converge", help="ladder convergence study"), multi_n=True)

    coeffs = subs.add_parser("coeffs", help="print expansion constants for given r")
    coeffs.add_argument("--r", type=int, default=1)

    subs.add_parser("problems", help="list registered problems")
    return parser


def _cmd_solve(args) -> int:
    problem = get_problem(args.problem)
    p = refinement_for(args.n, args.r, args.p)
    sol = solve_discrete_galerkin(
        problem, args.n, args.r, p=p, rho=args.rho, tol=args.tol, max_iter=args.max_iter
    )
    pts = sol.grid.partition_points
    z_s = iterated_eval(sol, pts)
    eps = None
    if problem.exact is not None:
        eps = np.abs(values_on(problem.exact, pts) - z_s).tolist()
    grid = sol.grid
    columns = [("t", pts.tolist(), ".2f"), ("z_S", z_s.tolist(), ".9e"), ("eps_S", eps, ".2e")]
    title = [
        f"problem {problem.name}: n={grid.n}, r={sol.r}, p={grid.p} "
        f"(m={grid.m}), rho={grid.rule.npoints}",
        f"newton: {sol.newton_iterations} iterations, "
        f"final residual {sol.final_residual_norm:.2e}",
        "",
    ]
    doc = {
        "problem": problem.name,
        "r": sol.r,
        "n": grid.n,
        "p": grid.p,
        "m": grid.m,
        "rho": grid.rule.npoints,
        **{name: values for name, values, _ in columns},
        "metadata": {
            "newton_iterations": sol.newton_iterations,
            "final_residual_norm": sol.final_residual_norm,
        },
    }
    _emit(_write_table(args.format, columns, title, doc), args.output)
    return EXIT_OK


def _cmd_converge(args) -> int:
    problem = get_problem(args.problem)
    ns = _parse_n_list(args.n)
    try:
        report = convergence_study(
            problem,
            args.r,
            ns,
            p_rule=args.p,
            rho=args.rho,
            tol=args.tol,
            max_iter=args.max_iter,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(format_report(report, args.format), args.output)
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    r = args.r
    if r < 1:
        raise _UsageError(f"--r must be >= 1, got {r}")
    full = lambda x: "%.16e" % x  # constants deserve full double precision
    taus = [0.0, 0.25, 0.5, 0.75, 1.0]
    lines = [f"r = {r}", f"minimal rho = {minimal_rho(r)}", ""]
    lines.append("J_k(tau) at tau = " + ", ".join(f"{t:g}" for t in taus) + ":")
    for k in range(1, 2 * r + 2):
        vals = " ".join(full(j_k(r, k, t)) for t in taus)
        lines.append(f"  J_{k}: {vals}")
    lines.append("")
    for p_index in range(1, 2 * r + 1):
        lines.append(f"bbar[{2 * r},{p_index}] = {full(bbar(r, p_index))}")
    lines.append(f"J2_integral = {full(j_square_integral(r))}")
    lines.append("")
    lines.append("Bernoulli B_k at s = 0, 0.5, 1:")
    for k in range(0, min(2 * r, 10) + 1):
        vals = " ".join(full(bernoulli(k, s)) for s in (0.0, 0.5, 1.0))
        lines.append(f"  B_{k}: {vals}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_problems() -> int:
    for name in available_problems():
        problem = get_problem(name)
        extra = f": {problem.description}" if problem.description else ""
        sys.stdout.write(f"{name}{extra}\n")
    return EXIT_OK


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "problems":
            return _cmd_problems()
        if args.command == "coeffs":
            return _cmd_coeffs(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "converge":
            return _cmd_converge(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except UnknownProblemError as exc:
        print(f"urysohn: {exc.args[0]}", file=sys.stderr)
        return EXIT_UNKNOWN_PROBLEM
    except ConvergenceError as exc:
        print(f"urysohn: solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"urysohn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
