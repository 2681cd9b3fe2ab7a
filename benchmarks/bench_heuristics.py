#!/usr/bin/env python
"""Exact vs fast benchmark: the proving tree vs the ``--fast`` contract.

Runs every Table 3 design point through the two-stage mapper twice:

* **exact** — ``bnb-pure`` proving optimality, and
* **fast** — ``mode="fast"`` with a 5% optimality-gap contract: the
  Lagrangian fast lane first, the gap-limited exact tree as fallback.

Each row reports both wall times, the exact run's tree work, and the
fast run's lane, incumbents and achieved (certified) gap.  The document
lands in ``BENCH_heuristics.json`` (``--artifact-dir``, default
``bench-artifacts``); ``scripts/bench_compare.py --check`` validates it
and the CI smoke job diffs a fresh ``--quick`` run against the committed
baseline on the *deterministic* counters (exact node counts, certified
rows, gap contract, and the exact runs' total LP solves and pivots),
never on wall time.

Usage::

    PYTHONPATH=src python benchmarks/bench_heuristics.py --quick
    PYTHONPATH=src python benchmarks/bench_heuristics.py \
        --artifact-dir bench-artifacts
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.artifacts import write_bench_artifact  # noqa: E402
from repro.bench.designpoints import default_design_points  # noqa: E402
from repro.core import MemoryMapper  # noqa: E402

#: Gap contract of the fast runs (mirrors the CLI default).
GAP_LIMIT = 0.05

#: Board-growth phases of the Table 3 rows, reported as families.
_FAMILY_OF_POINT = {
    1: "small-board", 2: "small-board", 3: "small-board",
    4: "mid-board", 5: "mid-board", 6: "mid-board",
    7: "large-board", 8: "large-board", 9: "large-board",
}


def _run_point(point, seed: int) -> Dict[str, Any]:
    design, board = point.build(seed=seed)

    exact_mapper = MemoryMapper(board, solver="bnb-pure")
    started = time.perf_counter()
    exact = exact_mapper.map(design)
    exact_wall = time.perf_counter() - started
    stats = exact.solve_stats

    fast_mapper = MemoryMapper(
        board, solver="bnb-pure", mode="fast", gap_limit=GAP_LIMIT
    )
    started = time.perf_counter()
    fast = fast_mapper.map(design)
    fast_wall = time.perf_counter() - started
    fast_stats = fast.solve_stats
    gap = fast_stats.get("gap")
    gap = float(gap) if isinstance(gap, (int, float)) else None

    return {
        "label": point.label(),
        "family": _FAMILY_OF_POINT.get(point.index, "sweep"),
        "exact_wall_seconds": exact_wall,
        "exact_objective": exact.cost.weighted_total,
        "exact_nodes": int(stats.get("nodes_explored", 0)),
        "lp_solves": int(stats.get("lp_solves", 0)),
        "simplex_iterations": int(stats.get("simplex_iterations", 0)),
        "incumbent_updates": int(stats.get("incumbent_updates", 0)),
        "fast_wall_seconds": fast_wall,
        # Incumbents the fast lane's guided greedy found (0 when the
        # gap-limited tree answered instead).
        "heuristic_incumbents": int(fast_stats.get("heuristic_incumbents", 0)),
        "fast_objective": fast.cost.weighted_total,
        "fast_backend": str(fast_stats.get("backend", "")),
        "fast_certified": fast_stats.get("backend") == "fast-heuristic",
        "fast_gap": gap,
        # Slack absorbs the float rounding of a gap stored at the limit.
        "gap_ok": gap is not None and gap <= GAP_LIMIT + 1e-9,
        "speedup": (exact_wall / fast_wall) if fast_wall > 0 else None,
    }


def run(quick: bool, seed: int = 0) -> Dict[str, Any]:
    points = default_design_points(full=False)
    if quick:
        points = points[:6]
    started = time.perf_counter()
    rows: List[Dict[str, Any]] = [_run_point(point, seed) for point in points]
    wall = time.perf_counter() - started

    families: Dict[str, Dict[str, float]] = {}
    for row in rows:
        bucket = families.setdefault(
            row["family"],
            {"points": 0, "exact_wall_seconds": 0.0, "fast_wall_seconds": 0.0,
             "heuristic_incumbents": 0, "fast_certified": 0},
        )
        bucket["points"] += 1
        bucket["exact_wall_seconds"] += row["exact_wall_seconds"]
        bucket["fast_wall_seconds"] += row["fast_wall_seconds"]
        bucket["heuristic_incumbents"] += row["heuristic_incumbents"]
        bucket["fast_certified"] += int(row["fast_certified"])

    return {
        "kind": "bench_artifact",
        "artifact_version": 1,
        "name": "heuristics",
        "solver": "bnb-pure",
        "quick": quick,
        "seed": seed,
        "gap_limit": GAP_LIMIT,
        "num_points": len(rows),
        "wall_seconds": wall,
        "total_exact_nodes": sum(r["exact_nodes"] for r in rows),
        "total_heuristic_incumbents": sum(r["heuristic_incumbents"] for r in rows),
        "total_lp_solves": sum(r["lp_solves"] for r in rows),
        "total_simplex_iterations": sum(r["simplex_iterations"] for r in rows),
        "num_fast_certified": sum(int(r["fast_certified"]) for r in rows),
        "all_gaps_ok": all(r["gap_ok"] for r in rows),
        "families": families,
        "results": rows,
    }


def render(payload: Dict[str, Any]) -> str:
    lines = [
        f"{'point':<36} {'nodes':>5} {'heur':>4} {'exact s':>8} "
        f"{'fast s':>8} {'gap':>7} {'lane':>14}"
    ]
    for row in payload["results"]:
        gap = row["fast_gap"]
        lines.append(
            f"{row['label']:<36} {row['exact_nodes']:>5} "
            f"{row['heuristic_incumbents']:>4} "
            f"{row['exact_wall_seconds']:>8.3f} {row['fast_wall_seconds']:>8.3f} "
            f"{'-' if gap is None else format(gap, '.4f'):>7} "
            f"{row['fast_backend']:>14}"
        )
    lines.append(
        f"totals: {payload['total_exact_nodes']} exact nodes, "
        f"{payload['total_heuristic_incumbents']} fast-lane incumbents, "
        f"{payload['num_fast_certified']}/{payload['num_points']} fast-lane "
        f"certified, gaps {'OK' if payload['all_gaps_ok'] else 'VIOLATED'}"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the exact tree against the fast mode")
    parser.add_argument("--quick", action="store_true",
                        help="first six design points only (CI smoke)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the synthetic design points")
    parser.add_argument("--artifact-dir", default="bench-artifacts",
                        help="directory for BENCH_heuristics.json "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    payload = run(quick=args.quick, seed=args.seed)
    print(render(payload))
    path = write_bench_artifact("heuristics", payload, args.artifact_dir)
    print(f"[artifact written to {path}]")
    if not payload["all_gaps_ok"]:
        print("FAIL: a fast-mode run violated its optimality-gap contract")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
