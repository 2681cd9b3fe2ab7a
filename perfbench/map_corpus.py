"""``map-corpus``: the default mapper, serially, over a fixed corpus.

Closed loop, one caller, one process: ``MemoryMapper(board).map(design)``
with every default (``solver="auto"``, exact mode) over the 100 instances
of :func:`perfbench.inputs.corpus_population`, in the order the seed
gives.  Only ``core`` and ``ilp`` do work; ``engine``, ``explore`` and
``serve`` are bypassed.  A run measures whole passes over the corpus: at
least :data:`MIN_PASSES`, and another only while it is expected to end
inside ``--seconds``, so every run times the same mix of instances and
its percentiles pool at least three samples of each.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from .common import Context, Outcome, alternate, measure_setup, solve_counts
from .inputs import Instance, map_corpus
from .reference import check
from .stats import latency_summary, peak_rss_mb, ratio
from .tracing import Tracer

#: Traced-run span names of the core and ilp layers, by the attribute
#: their callers resolve.
TRACE_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.preprocess:Preprocessor.__init__", "core.prepare"),
    ("repro.core.objective:CostModel.__init__", "core.prepare"),
    ("repro.core.heuristic_mapper:GreedyMapper.solve", "core.greedy"),
    ("repro.core.global_mapper:GlobalMapper.full_model_artifacts", "core.model_build"),
    ("repro.core.global_mapper:GlobalMapper.solve", "core.global"),
    ("repro.core.detailed_mapper:DetailedMapper.map", "core.detailed"),
    ("repro.core.pipeline:validate_global_mapping", "core.validate"),
    ("repro.core.pipeline:validate_detailed_mapping", "core.validate"),
    ("repro.core.pipeline:ensure_valid", "core.validate"),
    ("repro.ilp.context:SolveContext.standard_form", "ilp.standard_form"),
    ("repro.ilp.branch_bound:run_presolve", "ilp.presolve"),
    ("repro.ilp.branch_bound:BranchAndBoundSolver.solve", "ilp.tree"),
    ("repro.ilp.branch_bound:solve_lp_highs", "ilp.lp"),
    ("repro.ilp.branch_bound:solve_lp_simplex", "ilp.lp"),
    ("repro.ilp.revised_simplex:RevisedSimplex.solve", "ilp.lp"),
    ("repro.ilp.branch_bound:dive", "ilp.heuristics"),
    ("repro.ilp.branch_bound:rins_dive", "ilp.heuristics"),
    ("repro.ilp.branch_bound:lns_search", "ilp.heuristics"),
    ("repro.ilp.diving:dive", "ilp.heuristics"),
    ("repro.ilp.lns:dive", "ilp.heuristics"),
    ("repro.ilp.branch_bound:propagate_bounds", "ilp.propagate"),
    ("repro.ilp.scipy_backend:ScipyMilpSolver.solve", "ilp.milp"),
)

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS: Dict[str, str] = {
    "core.prepare": "core.prepare_s",
    "core.greedy": "core.greedy_s",
    "core.model_build": "core.model_build_s",
    "core.global": "core.global_s",
    "core.detailed": "core.detailed_s",
    "core.validate": "core.validate_s",
    "ilp.standard_form": "ilp.standard_form_s",
    "ilp.presolve": "ilp.presolve_s",
    "ilp.tree": "ilp.tree_self_s",
    "ilp.lp": "ilp.lp_s",
    "ilp.heuristics": "ilp.heuristics_s",
    "ilp.propagate": "ilp.propagate_s",
    "ilp.milp": "ilp.milp_s",
}

#: Passes every untraced run makes, whatever ``--seconds`` says: with 58
#: instances this leaves at least 17 samples beyond p90, and at 30 s a run
#: on the reference host makes exactly this many.
MIN_PASSES = 3

#: One map's outcome: objective (None when infeasible), solve stats, retries.
MapOutcome = Tuple[Optional[float], Dict, int]


def map_one(design, board) -> MapOutcome:
    from repro import MappingError, MemoryMapper

    mapper = MemoryMapper(board)
    try:
        result = mapper.map(design)
    except MappingError:
        return None, {}, 0
    return float(result.global_mapping.objective), result.solve_stats, result.retries


def _verify(ctx: Context, outcome: Outcome, instance: Instance, built, got) -> None:
    objective, _stats, _retries = got
    reference = ctx.references.get(instance.label(), lambda: built)
    reason = check(objective, objective is None, reference)
    if reason:
        outcome.fail(f"{instance.label()}: {reason}")


def _attempt(outcome: Outcome, instance: Instance, built) -> Optional[MapOutcome]:
    outcome.attempted += 1
    try:
        return map_one(*built)
    except Exception as exc:  # any other error is a failed operation
        outcome.fail(f"{instance.label()}: {type(exc).__name__}: {exc}")
        return None


def run(ctx: Context) -> Outcome:
    measure_setup(ctx)
    corpus = map_corpus(ctx.seed)
    built = [instance.build() for instance in corpus]
    if ctx.trace:
        return _run_traced(ctx, corpus, built)

    outcome = Outcome()
    latencies: List[float] = []
    results: List[Tuple[int, MapOutcome]] = []
    spent_before = ctx.speed.spent_s
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for index, instance in enumerate(corpus):
            ctx.speed.maybe_sample()
            t0 = time.perf_counter()
            got = _attempt(outcome, instance, built[index])
            latencies.append(time.perf_counter() - t0)
            if got is not None:
                results.append((index, got))
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - pass_start) > ctx.seconds:
            break
    elapsed = time.perf_counter() - start - (ctx.speed.spent_s - spent_before)
    rss = peak_rss_mb()

    for index, got in results:
        _verify(ctx, outcome, corpus[index], built[index], got)
    summary = latency_summary(latencies)
    ctx.latencies_ms = [value * 1000.0 for value in latencies]
    counts = f"n={summary['samples']}, {summary['beyond_p90']} beyond p90"
    ctx.report.set("throughput_per_s", len(latencies) / elapsed, f"{passes} pass(es)")
    ctx.report.set("latency_p50_ms", summary["p50_ms"], counts)
    ctx.report.set("latency_p90_ms", summary["p90_ms"], counts)
    ctx.report.set("peak_rss_mb", rss)
    ctx.report.set("bench.latency_samples", summary["samples"])
    ctx.report.set("bench.beyond_p90", summary["beyond_p90"])
    infeasible = sum(1 for _, got in results if got[0] is None)
    ctx.note(f"corpus: {len(corpus)} instances x {passes} pass(es) in {elapsed:.2f}s; "
             f"{infeasible} infeasible outcomes, all checked against the reference")
    return outcome


def _run_traced(ctx: Context, corpus: List[Instance], built) -> Outcome:
    """Every corpus instance, mapped once untraced and once traced.

    The pairs alternate which side runs first.  The traced work is the
    whole population, so the solver counts repeat exactly between traced
    runs, whatever the seed.
    """
    tracer = Tracer()
    for target, name in TRACE_TARGETS:
        tracer.add(target, name)
    outcome = Outcome()
    walls = {"traced": 0.0, "untraced": 0.0}
    results: List[Tuple[int, MapOutcome]] = []
    traced_results: List[Tuple[int, MapOutcome]] = []

    def untraced(index: int) -> None:
        t0 = time.perf_counter()
        got = _attempt(outcome, corpus[index], built[index])
        walls["untraced"] += time.perf_counter() - t0
        if got is not None:
            results.append((index, got))

    def traced(index: int) -> None:
        tracer.rid = index
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("core.map"):
                got = _attempt(outcome, corpus[index], built[index])
            walls["traced"] += time.perf_counter() - t0
        if got is not None:
            results.append((index, got))
            traced_results.append((index, got))

    for index in range(len(corpus)):
        alternate(index, lambda: untraced(index), lambda: traced(index))

    for index, got in results:
        _verify(ctx, outcome, corpus[index], built[index], got)
    selfs = tracer.self_times()
    calls = tracer.call_counts()
    for span, metric in SELF_TIME_METRICS.items():
        ctx.report.set(metric, selfs.get(span, 0.0))
    ctx.report.set("ilp.lp_calls", calls.get("ilp.lp", 0))
    ctx.report.set("ilp.propagate_calls", calls.get("ilp.propagate", 0))
    ctx.report.set("core.retries", sum(got[2] for _, got in traced_results))
    ctx.report.update(solve_counts(got[1] for _, got in traced_results))
    top = sum(s.duration for s in tracer.spans if s.name == "core.map")
    ctx.report.set("bench.unattributed_share", ratio(selfs.get("core.map", 0.0), top))
    ctx.report.set("bench.trace_overhead", ratio(walls["traced"], walls["untraced"]))
    tracer.write_chrome(ctx.trace_path(), f"perfbench {ctx.workload}")
    ctx.note(f"traced {len(corpus)} instances; "
             f"{len(tracer.spans)} spans written to {ctx.trace_path()}")
    return outcome
