"""Extension benchmark: solver-stack ablation on the global formulation.

DESIGN.md calls out two solver design decisions worth quantifying:

* **SOS-1 branching vs. single-variable branching** in the built-in
  branch-and-bound solver (the uniqueness rows make each data structure a
  special-ordered set; branching on the whole set settles an entire
  assignment per node), and
* the **LP relaxation kernel**: the revised simplex (the default) versus
  the legacy dense tableau (``lp_backend="simplex"``), with HiGHS
  branch-and-cut as the reference when SciPy is installed.

All backends must reach the same optimal objective; the benchmark records
their solve times and node counts on a mid-sized Table 3 design point.
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
         lambda: BranchAndBoundSolver(branching="sos1")),
        ("bnb + revised simplex + variable branching",
         lambda: BranchAndBoundSolver(branching="variable")),
        ("bnb + dense tableau + SOS-1 branching",
         lambda: BranchAndBoundSolver(branching="sos1", lp_backend="simplex")),
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

    by_label = {row["label"]: row for row in rows}
    sos = by_label["bnb + HiGHS LP + SOS-1 branching"]
    var = by_label["bnb + HiGHS LP + variable branching"]
    # Both branching strategies stay in the same ballpark on the global
    # formulation (it is small); the node counts are recorded in the table so
    # the trade-off can be inspected.  A blow-up of either strategy would
    # indicate a regression in the tree search.
    assert sos["nodes"] <= 10 * max(1, var["nodes"])
    assert var["nodes"] <= 10 * max(1, sos["nodes"])

    save_and_print(results_dir, "solver_ablation.txt", render(point, rows))
