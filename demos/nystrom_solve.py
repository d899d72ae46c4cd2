"""Solve the builtin benchmark problem with the quadrature (Nystrom) method.

The integral operator is replaced by a composite Gauss sum over m panels;
Newton's method then solves the resulting dense nonlinear system for the
solution values at the quadrature nodes.  The natural extension evaluates
the solution anywhere in [0, 1] through the same quadrature sum; above 256
panels Newton starts from the natural extension of the solution on a
quarter of the panels.
"""

import numpy as np

from urysohn import build_grid, gauss_rule, get_problem, residual_check, solve_nystrom

problem = get_problem("rpk-aks")
print("problem:", problem.name, "-", problem.description)
print()

grid = build_grid(100, 1, gauss_rule(2))
sol = solve_nystrom(problem, grid)

print(f"m = 100 panels, {grid.node_count} nodes")
print("Newton iterations:", sol.newton_iterations)
print("residual trace:", " ".join(f"{r:.2e}" for r in sol.residual_norms))
print()

err = np.abs(sol.node_values.values - problem.exact(grid.nodes)).max()
print(f"max node error vs exact solution: {err:.3e}")

s = np.linspace(0, 1, 9)
print()
print("natural extension vs exact solution:")
for si, zi in zip(s, sol(s)):
    print(f"  x({si:.3f}) = {zi:.8f}   exact {problem.exact(si):.8f}")
print()

resid = residual_check(problem, sol, panels=64)
print(f"equation residual of the discrete solution: {resid:.3e}")
print()

print("node-error convergence (expected order 2 in the panel width):")
prev = None
for m in (25, 50, 100, 200, 400, 800):
    g = build_grid(m, 1, gauss_rule(2))
    e = np.abs(solve_nystrom(problem, g).node_values.values - problem.exact(g.nodes)).max()
    rate = "" if prev is None else f"  order {np.log2(prev / e):5.2f}"
    print(f"  m={m:<4d} error {e:.3e}{rate}")
    prev = e
