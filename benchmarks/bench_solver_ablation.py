"""Extension benchmark: solver-stack comparison on the global formulation.

The built-in branch-and-bound solver (SOS-1 branching on the revised
simplex) against HiGHS branch-and-cut as the reference when SciPy is
installed.  Both must reach the same optimal objective; the benchmark
records their solve times and node counts on a mid-sized Table 3 design
point.
"""

from __future__ import annotations

import time

from conftest import save_and_print

from repro.bench import SCALED_DESIGN_POINTS, ascii_table, format_seconds
from repro.core import GlobalMapper
from repro.ilp import BranchAndBoundSolver, ScipyMilpSolver, highs_available


def build_instance():
    point = SCALED_DESIGN_POINTS[5]
    design, board = point.build(seed=0)
    artifacts = GlobalMapper(board).build_model(design)
    return point, artifacts.model


def solver_matrix():
    solvers = [
        ("bnb + revised simplex + SOS-1 branching",
         lambda: BranchAndBoundSolver()),
    ]
    if highs_available():
        solvers.append(("HiGHS branch-and-cut (scipy.optimize.milp)",
                        lambda: ScipyMilpSolver()))
    return solvers


def run_ablation():
    point, model = build_instance()
    rows = []
    for label, factory in solver_matrix():
        solver = factory()
        start = time.perf_counter()
        solution = solver.solve(model)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "label": label,
                "status": solution.status,
                "objective": solution.objective,
                "seconds": elapsed,
                "nodes": solution.stats.nodes_explored,
                "lp_solves": solution.stats.lp_solves,
            }
        )
    return point, rows


def render(point, rows) -> str:
    table_rows = [
        [
            row["label"],
            row["status"],
            f"{row['objective']:.4f}",
            format_seconds(row["seconds"]),
            row["nodes"],
            row["lp_solves"],
        ]
        for row in rows
    ]
    return ascii_table(
        ["solver stack", "status", "objective", "time", "nodes", "LP solves"],
        table_rows,
        title=f"Solver ablation on the global formulation of {point.label()}",
    )


def test_solver_ablation(benchmark, results_dir):
    point, rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    # Every backend proves optimality and they all agree on the optimum.
    objectives = [row["objective"] for row in rows]
    assert all(row["status"] == "optimal" for row in rows)
    assert max(objectives) - min(objectives) <= 1e-6 * max(1.0, abs(objectives[0]))

    save_and_print(results_dir, "solver_ablation.txt", render(point, rows))
