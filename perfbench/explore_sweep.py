"""``explore-sweep``: many small solves through the explorer and the engine.

Closed loop, one caller: a fresh in-memory ``DesignSpaceExplorer`` (default
warm chains, ``jobs=2``, no cache directory) per sweep of the 48-point
grid, one sweep per explorer seed of :func:`perfbench.inputs.explore_plan`,
followed by the Pareto front and fingerprint a user reads.  Engine
dispatch, the per-wave barrier, in-process single-job waves and the
warm-chain hand-off carry much of the wall time here; the tree search
carries little.  Worker-pool start-up is inside each timed sweep, because
every user of a fresh explorer pays it.  A run measures whole passes over
the plan, like ``map-corpus``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Tuple

from .common import Context, Outcome, alternate, measure_setup, solve_counts
from .inputs import EXPLORE_JOBS, Sweep, explore_plan, explore_points
from .reference import check
from .stats import latency_summary, peak_rss_mb, ratio
from .tracing import Tracer


def sweep_once(sweep: Sweep):
    """One user-visible sweep: explore, then read the front and fingerprint."""
    from repro.explore import DesignSpaceExplorer, ScenarioGrid

    grid = ScenarioGrid.parse(list(sweep.specs))
    result = DesignSpaceExplorer(
        grid, jobs=EXPLORE_JOBS, seed=sweep.explorer_seed
    ).run()
    result.pareto_front()
    result.fingerprint()
    return result


def _attempt(outcome: Outcome, sweep: Sweep):
    try:
        return sweep_once(sweep)
    except Exception as exc:  # a crashed sweep fails every point it held
        outcome.attempted += len(explore_points(sweep))
        outcome.fail(f"sweep seed {sweep.explorer_seed}: {type(exc).__name__}: {exc}")
        return None


def _verify(ctx: Context, outcome: Outcome, sweep: Sweep, result) -> None:
    points = explore_points(sweep)
    outcome.attempted += len(result.points)
    if len(points) != len(result.points):
        outcome.fail(f"sweep seed {sweep.explorer_seed}: {len(result.points)} "
                     f"results for {len(points)} points")
        return
    for point, record in zip(points, result.points):
        label = point.label()
        if record.status not in ("ok", "failed"):
            outcome.fail(f"{label}: {record.status} {record.error}")
            continue
        reference = ctx.references.get(f"explore:{label}", point.build)
        reason = check(record.objective, record.status == "failed", reference)
        if reason:
            outcome.fail(f"{label}: {reason}")


def run(ctx: Context) -> Outcome:
    measure_setup(ctx)
    plan = explore_plan(ctx.seed)
    if ctx.trace:
        return _run_traced(ctx, plan)

    outcome = Outcome()
    done: List[Tuple[Sweep, Any]] = []
    sweep_walls: List[float] = []
    spent_before = ctx.speed.spent_s
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for sweep in plan:
            ctx.speed.sample(5)
            t0 = time.perf_counter()
            result = _attempt(outcome, sweep)
            sweep_walls.append(time.perf_counter() - t0)
            if result is not None:
                done.append((sweep, result))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > ctx.seconds:
            break
    elapsed = time.perf_counter() - start - (ctx.speed.spent_s - spent_before)
    rss = peak_rss_mb()

    latencies = []
    for sweep, result in done:
        _verify(ctx, outcome, sweep, result)
        latencies += [point.wall_time for point in result.points]
    summary = latency_summary(latencies)
    ctx.latencies_ms = [value * 1000.0 for value in latencies]
    counts = f"n={summary['samples']} points, {summary['beyond_p90']} beyond p90"
    ctx.report.set("throughput_per_s", len(latencies) / elapsed,
                   f"{len(sweep_walls)} sweeps, {passes} pass(es)")
    ctx.report.set("latency_p50_ms", summary["p50_ms"], counts)
    ctx.report.set("latency_p90_ms", summary["p90_ms"], counts)
    ctx.report.set("peak_rss_mb", rss, "bench process and its pool workers")
    ctx.report.set("bench.latency_samples", summary["samples"])
    ctx.report.set("bench.beyond_p90", summary["beyond_p90"])
    ctx.note(f"{len(sweep_walls)} sweeps in {elapsed:.2f}s "
             f"(min {min(sweep_walls):.2f}s, max {max(sweep_walls):.2f}s)")
    return outcome


class _WaveLog:
    """Per engine wave: wall, job walls and whether it ran in-process."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.waves: List[Tuple[float, List[float], bool]] = []

    def __call__(self, index: int, results) -> None:
        pid = os.getpid()
        self.waves.append((
            self.tracer.spans[index].duration,
            [r.wall_time for r in results],
            all(r.worker_pid == pid for r in results),
        ))


def _run_traced(ctx: Context, plan: List[Sweep]) -> Outcome:
    """The first half of the plan, each sweep untraced and traced.

    Only the engine and explore layers are wrapped: their calls happen in
    this process, while the solves they dispatch run in pool workers.
    """
    tracer = Tracer()
    waves = _WaveLog(tracer)
    tracer.add("repro.engine.engine:MappingEngine.run", "engine.run", waves)
    tracer.add("repro.explore.explorer:DesignSpaceExplorer.run", "explore.sweep")
    tracer.add("repro.explore.explorer:ExploreResult.pareto_front", "explore.reduce")
    tracer.add("repro.explore.explorer:ExploreResult.fingerprint", "explore.reduce")
    outcome = Outcome()
    walls = {"traced": 0.0, "untraced": 0.0}
    done: List[Tuple[Sweep, Any]] = []
    critical = 0.0

    def untraced(sweep: Sweep) -> None:
        t0 = time.perf_counter()
        result = _attempt(outcome, sweep)
        walls["untraced"] += time.perf_counter() - t0
        if result is not None:
            done.append((sweep, result))

    def traced(order: int, sweep: Sweep) -> None:
        nonlocal critical
        tracer.rid = order
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("bench.sweep"):
                result = _attempt(outcome, sweep)
            walls["traced"] += time.perf_counter() - t0
        if result is not None:
            done.append((sweep, result))
            chains: Dict[int, float] = {}
            for point in result.points:
                chains[point.chain] = chains.get(point.chain, 0.0) + point.wall_time
            critical += max(chains.values())
            traced_points.extend(result.points)

    traced_points: List[Any] = []
    subset = plan[: max(1, len(plan) // 2)]
    for order, sweep in enumerate(subset):
        alternate(order, lambda: untraced(sweep), lambda: traced(order, sweep))

    for sweep, result in done:
        _verify(ctx, outcome, sweep, result)
    selfs = tracer.self_times()
    run_s = sum(wall for wall, _, _ in waves.waves)
    busy = sum(sum(jobs) for _, jobs, _ in waves.waves)
    ctx.report.set("engine.run_s", run_s)
    ctx.report.set("engine.worker_busy_s", busy)
    ctx.report.set("engine.busy_ratio", ratio(busy, run_s * EXPLORE_JOBS))
    ctx.report.set("engine.overhead_s",
                   sum(wall - max(jobs, default=0.0) for wall, jobs, _ in waves.waves))
    ctx.report.set("engine.waves", len(waves.waves))
    ctx.report.set("engine.inproc_waves", sum(1 for _, _, inproc in waves.waves if inproc))
    ctx.report.set("explore.barrier_idle_s", run_s * EXPLORE_JOBS - busy)
    ctx.report.set("explore.critical_chain_s", critical)
    ctx.report.set("explore.reduce_s", selfs.get("explore.reduce", 0.0))
    stats = [point.solve_stats for point in traced_points]
    counts = solve_counts(stats)
    ctx.report.update(counts)
    ctx.report.set("explore.lp_solves_total", counts["ilp.lp_solves_total"])
    ctx.report.set("explore.warm_start_hits",
                   sum(int(s.get("warm_start_hits", 0) or 0) for s in stats))
    top = sum(s.duration for s in tracer.spans if s.name == "bench.sweep")
    ctx.report.set("bench.unattributed_share", ratio(selfs.get("bench.sweep", 0.0), top))
    ctx.report.set("bench.trace_overhead", ratio(walls["traced"], walls["untraced"]))
    tracer.write_chrome(ctx.trace_path(), f"perfbench {ctx.workload}")
    ctx.note(f"traced {len(subset)} of {len(plan)} sweeps; {len(waves.waves)} waves, "
             f"{len(tracer.spans)} spans written to {ctx.trace_path()}")
    return outcome
