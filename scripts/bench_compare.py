#!/usr/bin/env python
"""Validate and diff ``BENCH_*.json`` benchmark artifacts.

Two modes:

``--check FILE``
    Validate that an artifact exists and is well-formed (used by the CI
    benchmark smoke job).  Exit 0 when valid, 1 when missing/malformed.

``BASELINE CANDIDATE``
    Diff two artifacts of the same benchmark: per-label wall-time and
    solver-work deltas plus the aggregate totals.  With
    ``--fail-over PCT`` the script exits 1 when the candidate's total
    wall time regressed by more than PCT percent over the baseline —
    except for ``lp_kernel`` artifacts, which gate on total pivots (a
    deterministic counter, comparable across machines) instead.
    ``table3`` and ``heuristics`` artifacts over the same points also
    gate, with no tolerance, on their total LP work: every LP solve and
    pivot the solver ran may not exceed the baseline.

Examples::

    python scripts/bench_compare.py --check BENCH_table3.json
    python scripts/bench_compare.py BENCH_table3_new.json BENCH_table3.json
    python scripts/bench_compare.py old.json new.json --fail-over 20
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Keys every bench artifact must carry to be considered well-formed.
REQUIRED_KEYS = ("kind", "artifact_version", "name", "solver", "num_points",
                 "wall_seconds", "results")

#: Aggregate counters diffed when both artifacts carry them.
TOTAL_KEYS = (
    "wall_seconds",
    "serial_seconds",
    "total_lp_solves",
    "total_nodes_explored",
    "total_simplex_iterations",
    "total_warm_lp_solves",
    "total_basis_reuses",
    "total_refactorizations",
    "total_pivots",
    "total_global_solves",
    "total_retries",
    "total_presolve_rows_dropped",
    "total_presolve_cols_fixed",
    "total_exact_nodes",
    "total_heuristic_incumbents",
    "num_fast_certified",
)

#: Solver-work keys a table3 artifact must carry since the revised-simplex
#: kernel landed (the bench-smoke job gates on their presence).
TABLE3_KEYS = ("total_warm_lp_solves", "total_basis_reuses",
               "total_refactorizations", "total_lp_solves",
               "total_simplex_iterations")

#: Aggregate counters an lp_kernel artifact (the LP kernel
#: micro-benchmark, ``benchmarks/bench_lp_kernel.py``) must carry.
#: These are deterministic — same corpus, same counts on any machine —
#: which is why the regression gate for this artifact runs on pivots,
#: not wall time.
LP_KERNEL_KEYS = ("total_pivots", "total_refactorizations",
                  "all_objectives_match")

#: Aggregate counters a heuristics artifact
#: (``benchmarks/bench_heuristics.py``) must carry.  Like the kernel
#: benchmark, its gate runs on deterministic counters — exact node
#: counts and the gap contract — not wall time.
HEURISTICS_KEYS = ("gap_limit", "total_exact_nodes",
                   "total_heuristic_incumbents", "num_fast_certified",
                   "all_gaps_ok", "total_lp_solves",
                   "total_simplex_iterations")

#: Total LP work of a table3 or heuristics artifact: (what, key).  The
#: tree counts every LP it runs, so each is one counter; deterministic for
#: a fixed set of points, so the gate has no tolerance.
LP_WORK = (
    ("LP solves", "total_lp_solves"),
    ("pivots", "total_simplex_iterations"),
)

#: Keys a serve_scale artifact (``benchmarks/bench_serve_scale.py``)
#: must carry.  Its gates run exclusively on deterministic counters —
#: dedupe totals, shard balance, warm reuses, fingerprint equality —
#: never on wall time or the timing-dependent shed/retry numbers.
SERVE_SCALE_KEYS = ("replicas", "max_inflight", "totals", "by_replica",
                    "shard_counts", "warm", "fingerprint_check", "phases")


def load_artifact(path: Path) -> Dict[str, Any]:
    if not path.exists():
        raise SystemExit(f"error: artifact {path} does not exist")
    try:
        with path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read artifact {path}: {exc}")
    problems = validate(document)
    if problems:
        raise SystemExit(
            f"error: artifact {path} is malformed: " + "; ".join(problems)
        )
    return document


#: Extra keys an explore artifact must carry on top of REQUIRED_KEYS.
EXPLORE_KEYS = ("grid", "chains", "fingerprint", "pareto_front",
                "warm_chain", "total_lp_solves")


def validate(document: Any) -> List[str]:
    """Return a list of problems (empty when the artifact is well-formed)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["top-level value is not an object"]
    if document.get("name") == "serve_scale":
        # The serve-tier artifact is phase-structured, not per-label rows;
        # it has its own schema and deterministic gates.
        return _validate_serve_scale(document)
    for key in REQUIRED_KEYS:
        if key not in document:
            problems.append(f"missing key {key!r}")
    if document.get("kind") != "bench_artifact":
        problems.append(f"kind is {document.get('kind')!r}, "
                        "expected 'bench_artifact'")
    results = document.get("results")
    if not isinstance(results, list):
        problems.append("'results' is not a list")
    else:
        if len(results) != document.get("num_points", len(results)) and \
                document.get("name") in ("table3", "explore") and \
                not document.get("streamed"):
            # Streamed explore artifacts spool their rows to a JSONL
            # file; the inline results list is empty by design.
            problems.append("num_points does not match len(results)")
        for i, row in enumerate(results):
            if not isinstance(row, dict) or "label" not in row:
                problems.append(f"results[{i}] lacks a label")
                break
    if document.get("name") == "explore":
        problems.extend(_validate_explore(document))
    if document.get("name") == "table3":
        for key in TABLE3_KEYS:
            if key not in document:
                problems.append(f"table3 artifact missing key {key!r}")
    if document.get("name") == "lp_kernel":
        for key in LP_KERNEL_KEYS:
            if key not in document:
                problems.append(f"lp_kernel artifact missing key {key!r}")
        if document.get("all_objectives_match") is False:
            problems.append("lp_kernel artifact records a kernel that "
                            "disagreed with the dense-inverse reference")
    if document.get("name") == "heuristics":
        for key in HEURISTICS_KEYS:
            if key not in document:
                problems.append(f"heuristics artifact missing key {key!r}")
        if document.get("all_gaps_ok") is False:
            problems.append("heuristics artifact records a fast run that "
                            "violated its optimality-gap contract")
    return problems


def _validate_serve_scale(document: Dict[str, Any]) -> List[str]:
    """Schema + deterministic gates of a serve_scale artifact."""
    problems: List[str] = []
    if document.get("kind") != "bench_artifact":
        problems.append(f"kind is {document.get('kind')!r}, "
                        "expected 'bench_artifact'")
    for key in SERVE_SCALE_KEYS:
        if key not in document:
            problems.append(f"serve_scale artifact missing key {key!r}")
    totals = document.get("totals")
    if not isinstance(totals, dict):
        return problems + ["'totals' is not an object"]
    if int(totals.get("errors", 0)):
        problems.append(f"traffic run recorded {totals['errors']} errors")
    if int(totals.get("fingerprint_conflicts", 0)):
        problems.append("one cache key was served with two different "
                        "fingerprints")
    if int(totals.get("completed", 0)) <= 0:
        problems.append("no job completed")
    if int(totals.get("deduped", 0)) + int(totals.get("cache_hits", 0)) <= 0:
        problems.append("duplicate-heavy traffic produced no dedupe")
    check = document.get("fingerprint_check")
    if not isinstance(check, dict):
        problems.append("'fingerprint_check' is not an object")
    else:
        if int(check.get("compared", 0)) <= 0:
            problems.append("fingerprint check compared nothing")
        if check.get("mismatches"):
            problems.append("served fingerprints diverged from the direct "
                            "engine run")
        if check.get("unknown_keys"):
            problems.append("served cache keys not reproducible directly: "
                            f"{check['unknown_keys']}")
    replicas = int(document.get("replicas", 0))
    shard_counts = document.get("shard_counts")
    if isinstance(shard_counts, dict) and replicas >= 2:
        busy = sum(1 for count in shard_counts.values() if int(count) > 0)
        if busy < 2:
            problems.append(
                f"traffic landed on {busy} shard(s) out of {replicas}; "
                "the consistent-hash ring is not spreading load"
            )
    warm = document.get("warm")
    if isinstance(warm, dict) and replicas >= 2:
        if int(warm.get("reuses", 0)) <= 0:
            problems.append("no warm-state reuse despite shared-identity "
                            "resubmissions")
        if int(warm.get("imports", 0)) <= 0:
            problems.append("no cross-replica warm import: every reuse was "
                            "replica-local")
    return problems


def _validate_explore(document: Dict[str, Any]) -> List[str]:
    """Schema checks specific to ``repro explore`` artifacts."""
    problems: List[str] = []
    for key in EXPLORE_KEYS:
        if key not in document:
            problems.append(f"explore artifact missing key {key!r}")
    grid = document.get("grid")
    if isinstance(grid, dict):
        if grid.get("kind") != "scenario_grid" or not grid.get("sweeps"):
            problems.append("'grid' is not a scenario_grid with sweeps")
    elif "grid" in document:
        problems.append("'grid' is not an object")
    streamed = bool(document.get("streamed"))
    if streamed and not document.get("results_path"):
        problems.append("streamed explore artifact missing 'results_path'")
    if streamed:
        # Rows live in the spool; the chains list is the label universe.
        labels = {label for chain in document.get("chains", [])
                  if isinstance(chain, list) for label in chain}
    else:
        labels = {row.get("label") for row in document.get("results", [])
                  if isinstance(row, dict)}
    front = document.get("pareto_front")
    if isinstance(front, list):
        bad = [label for label in front if not isinstance(label, str)]
        if bad:
            problems.append(f"pareto_front entries are not labels: {bad}")
        unknown = [label for label in front
                   if isinstance(label, str) and label not in labels]
        if unknown:
            problems.append(f"pareto_front references unknown labels {unknown}")
    elif "pareto_front" in document:
        problems.append("'pareto_front' is not a list")
    chains = document.get("chains")
    if isinstance(chains, list):
        if any(not isinstance(chain, list) for chain in chains):
            problems.append("'chains' entries are not lists of labels")
        else:
            chained = sum(len(chain) for chain in chains)
            covered = (document.get("num_points", chained) if streamed
                       else len(document.get("results", [])))
            if chained != covered:
                problems.append("chains do not cover every result exactly once")
    elif "chains" in document:
        problems.append("'chains' is not a list")
    return problems


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _delta(base: Optional[float], cand: Optional[float]) -> str:
    if base is None or cand is None or not isinstance(base, (int, float)) \
            or not isinstance(cand, (int, float)):
        return "-"
    diff = cand - base
    pct = f" ({100.0 * diff / base:+.1f}%)" if base else ""
    return f"{diff:+.3f}{pct}"


def _lp_work_regressions(baseline: Dict[str, Any],
                         candidate: Dict[str, Any]) -> List[str]:
    """LP-work totals of ``candidate`` that exceed ``baseline``'s.

    Only artifacts over the same labels are comparable; otherwise, or
    when either artifact lacks a total, the gate is skipped with a note.
    """
    labels = [{row.get("label") for row in doc.get("results", [])}
              for doc in (baseline, candidate)]
    if labels[0] != labels[1]:
        print("\nnote: LP-work gate skipped: the artifacts cover different "
              "points")
        return []
    regressions = []
    for what, key in LP_WORK:
        if any(key not in doc for doc in (baseline, candidate)):
            print(f"\nnote: LP-work gate on {what} skipped: "
                  f"{key} missing from an artifact")
            continue
        base, cand = int(baseline[key]), int(candidate[key])
        if cand > base:
            regressions.append(f"candidate total {what} {cand} "
                               f"({key}) exceed baseline {base}")
    return regressions


def compare(baseline: Dict[str, Any], candidate: Dict[str, Any],
            fail_over: Optional[float]) -> int:
    if baseline.get("name") == candidate.get("name") == "serve_scale":
        return _compare_serve_scale(baseline, candidate)
    print(f"baseline : {baseline['name']} (solver={baseline.get('solver')}, "
          f"jobs={baseline.get('jobs')}, warm_retries="
          f"{baseline.get('warm_retries')}, presolve={baseline.get('presolve')})")
    print(f"candidate: {candidate['name']} (solver={candidate.get('solver')}, "
          f"jobs={candidate.get('jobs')}, warm_retries="
          f"{candidate.get('warm_retries')}, presolve={candidate.get('presolve')})")
    print()

    print(f"{'metric':<30} {'baseline':>12} {'candidate':>12} {'delta':>20}")
    for key in TOTAL_KEYS:
        base = baseline.get(key)
        cand = candidate.get(key)
        if base is None and cand is None:
            continue
        print(f"{key:<30} {_fmt(base):>12} {_fmt(cand):>12} "
              f"{_delta(base, cand):>20}")
    print()

    base_rows = {row["label"]: row for row in baseline.get("results", [])}
    cand_rows = {row["label"]: row for row in candidate.get("results", [])}
    shared = [label for label in base_rows if label in cand_rows]
    objective_mismatches: List[str] = []
    if shared:
        print(f"{'label':<34} {'base s':>9} {'cand s':>9} "
              f"{'base lp':>8} {'cand lp':>8} {'objectives':>11}")
        for label in shared:
            b, c = base_rows[label], cand_rows[label]
            b_obj = b.get("global_objective",
                          b.get("objective", b.get("exact_objective")))
            c_obj = c.get("global_objective",
                          c.get("objective", c.get("exact_objective")))
            match = "-"
            if isinstance(b_obj, (int, float)) and isinstance(c_obj, (int, float)):
                scale = max(1e-9, abs(b_obj))
                if abs(b_obj - c_obj) / scale <= 1e-6:
                    match = "same"
                else:
                    match = "DIFFER"
                    objective_mismatches.append(label)
            b_lp = (b.get("solve_stats") or {}).get(
                "lp_solves", b.get("pivots", b.get("exact_nodes", "-")))
            c_lp = (c.get("solve_stats") or {}).get(
                "lp_solves", c.get("pivots", c.get("exact_nodes", "-")))
            b_s = b.get("global_detailed_seconds",
                        b.get("wall_time", b.get("wall_seconds",
                              b.get("exact_wall_seconds", 0.0)))) or 0.0
            c_s = c.get("global_detailed_seconds",
                        c.get("wall_time", c.get("wall_seconds",
                              c.get("exact_wall_seconds", 0.0)))) or 0.0
            print(f"{label:<34} {b_s:>9.3f} {c_s:>9.3f} "
                  f"{str(b_lp):>8} {str(c_lp):>8} {match:>11}")
    missing = sorted(set(base_rows) ^ set(cand_rows))
    if missing:
        print(f"\nwarning: labels present in only one artifact: {missing}")

    if fail_over is not None:
        if baseline.get("name") == candidate.get("name") and \
                baseline.get("name") in ("table3", "heuristics"):
            regressions = _lp_work_regressions(baseline, candidate)
            if regressions:
                for regression in regressions:
                    print(f"\nFAIL: {regression}")
                return 1
        if baseline.get("name") == candidate.get("name") == "heuristics":
            # Heuristics artifacts gate on the exact tree's node counts
            # and the fast lane's certification rate — both deterministic
            # for a fixed set of points — never on wall time.
            base_nodes = float(baseline.get("total_exact_nodes") or 0.0)
            cand_nodes = float(candidate.get("total_exact_nodes") or 0.0)
            if base_nodes > 0 and \
                    cand_nodes > base_nodes * (1.0 + fail_over / 100.0):
                print(f"\nFAIL: candidate exact node count {cand_nodes:.0f} "
                      f"exceeds baseline {base_nodes:.0f} by more than "
                      f"{fail_over:.0f}%")
                return 1
            base_cert = int(baseline.get("num_fast_certified") or 0)
            cand_cert = int(candidate.get("num_fast_certified") or 0)
            if cand_cert < base_cert:
                print(f"\nFAIL: fast lane certified only {cand_cert} "
                      f"point(s), baseline certified {base_cert}")
                return 1
            return 0
        if baseline.get("name") == candidate.get("name") == "lp_kernel":
            # Kernel artifacts gate on total pivots: deterministic on any
            # machine (same corpus, same counts), unlike wall time.
            base_pivots = float(baseline.get("total_pivots") or 0.0)
            cand_pivots = float(candidate.get("total_pivots") or 0.0)
            if base_pivots > 0 and \
                    cand_pivots > base_pivots * (1.0 + fail_over / 100.0):
                print(f"\nFAIL: candidate total pivots {cand_pivots:.0f} "
                      f"exceed baseline {base_pivots:.0f} by more than "
                      f"{fail_over:.0f}%")
                return 1
            return 0
        if baseline.get("name") == candidate.get("name") == "explore":
            # Mapping objectives are deterministic (same grid, seed and
            # solver give the same mappings on any machine), so a
            # per-label objective divergence is a correctness regression,
            # never noise — gate on it before the wall-time check.
            if objective_mismatches:
                print(f"\nFAIL: objectives differ on "
                      f"{len(objective_mismatches)} shared point(s): "
                      f"{objective_mismatches[:10]}")
                return 1
        base_wall = float(baseline.get("wall_seconds") or 0.0)
        cand_wall = float(candidate.get("wall_seconds") or 0.0)
        if base_wall > 0 and cand_wall > base_wall * (1.0 + fail_over / 100.0):
            print(f"\nFAIL: candidate wall time {cand_wall:.3f}s exceeds "
                  f"baseline {base_wall:.3f}s by more than {fail_over:.0f}%")
            return 1
    return 0


def _compare_serve_scale(baseline: Dict[str, Any],
                         candidate: Dict[str, Any]) -> int:
    """Diff two serve_scale artifacts on their deterministic counters.

    Validation (:func:`_validate_serve_scale`) already enforced the hard
    gates on each artifact individually; the diff is informational plus
    one relative check: the candidate must not dedupe *less* effectively
    than the baseline on the same traffic schedule.
    """
    print(f"baseline : serve_scale ({baseline.get('replicas')} replicas, "
          f"max_inflight={baseline.get('max_inflight')})")
    print(f"candidate: serve_scale ({candidate.get('replicas')} replicas, "
          f"max_inflight={candidate.get('max_inflight')})")
    print()
    base_totals = baseline.get("totals") or {}
    cand_totals = candidate.get("totals") or {}
    print(f"{'counter':<28} {'baseline':>12} {'candidate':>12} {'delta':>20}")
    for key in sorted(set(base_totals) | set(cand_totals)):
        print(f"{key:<28} {_fmt(base_totals.get(key)):>12} "
              f"{_fmt(cand_totals.get(key)):>12} "
              f"{_delta(base_totals.get(key), cand_totals.get(key)):>20}")
    for label, source in (("warm", "warm"),):
        base = baseline.get(source) or {}
        cand = candidate.get(source) or {}
        for key in sorted(set(base) | set(cand)):
            print(f"{label + '.' + key:<28} {_fmt(base.get(key)):>12} "
                  f"{_fmt(cand.get(key)):>12} "
                  f"{_delta(base.get(key), cand.get(key)):>20}")
    same_traffic = (
        baseline.get("replicas") == candidate.get("replicas")
        and base_totals.get("scheduled") == cand_totals.get("scheduled")
    )
    if same_traffic:
        base_dedupe = int(base_totals.get("deduped", 0)) + \
            int(base_totals.get("cache_hits", 0))
        cand_dedupe = int(cand_totals.get("deduped", 0)) + \
            int(cand_totals.get("cache_hits", 0))
        if cand_dedupe < base_dedupe:
            print(f"\nFAIL: candidate answered only {cand_dedupe} duplicates "
                  f"without a fresh solve, baseline answered {base_dedupe}")
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="validate / diff BENCH_*.json artifacts")
    parser.add_argument("artifacts", nargs="*", type=Path,
                        help="BASELINE CANDIDATE artifact files")
    parser.add_argument("--check", type=Path, default=None,
                        help="only validate this artifact and exit")
    parser.add_argument("--fail-over", type=float, default=None, metavar="PCT",
                        help="exit 1 when candidate wall time (total pivots "
                             "for lp_kernel artifacts) regresses by more "
                             "than PCT percent")
    args = parser.parse_args(argv)

    if args.check is not None:
        document = load_artifact(args.check)
        if document.get("name") == "serve_scale":
            totals = document.get("totals") or {}
            print(f"ok: {args.check} is a well-formed serve_scale artifact "
                  f"({document.get('replicas')} replicas, "
                  f"{totals.get('completed')} jobs completed, "
                  f"{totals.get('deduped', 0) + totals.get('cache_hits', 0)} "
                  "answered without a fresh solve)")
            return 0
        print(f"ok: {args.check} is a well-formed bench artifact "
              f"({document['name']}, {document['num_points']} points, "
              f"{document['wall_seconds']:.3f}s)")
        return 0

    if len(args.artifacts) != 2:
        parser.error("expected BASELINE and CANDIDATE artifacts (or --check FILE)")
    baseline = load_artifact(args.artifacts[0])
    candidate = load_artifact(args.artifacts[1])
    return compare(baseline, candidate, args.fail_over)


if __name__ == "__main__":
    sys.exit(main())
