"""Tests of the benchmark's own code (inputs, percentiles, spans, metric names).

Run with ``PYTHONPATH=src python -m pytest perfbench``; they need no
solver runs and finish in a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from perfbench.metrics import Report, load_spec
from perfbench.reference import INFEASIBLE, check
from perfbench.stats import (
    MIN_BEYOND_TAIL,
    TAIL_PERCENTILE,
    beyond,
    latency_summary,
    percentile,
)
from perfbench.tracing import Span, Tracer, covered, self_times

HERE = Path(__file__).resolve().parent
SPEC = load_spec()


# --------------------------------------------------------------------- inputs
def instance_digest(design, board) -> str:
    """Content hash of a built instance (its canonical serialised form)."""
    from repro.io import board_to_dict, design_to_dict

    text = json.dumps(
        {"design": design_to_dict(design), "board": board_to_dict(board)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _corpus_digest(seed: int) -> str:
    from perfbench.inputs import map_corpus

    digest = hashlib.sha256()
    for instance in map_corpus(seed):
        digest.update(instance_digest(*instance.build()).encode())
    return digest.hexdigest()


def _grid_digest(seed: int) -> str:
    from perfbench.inputs import explore_plan, explore_points

    digest = hashlib.sha256()
    for sweep in explore_plan(seed):
        digest.update(repr(sweep).encode())
        digest.update(repr([p.label() for p in explore_points(sweep)]).encode())
    first = explore_plan(seed)[0]
    for point in explore_points(first):
        digest.update(instance_digest(*point.build()).encode())
    return digest.hexdigest()


def _schedule_digest(seed: int) -> str:
    from perfbench.inputs import serve_pool, serve_schedule

    schedule, fresh = serve_schedule(seed, SPEC["run_seconds"])
    text = repr(schedule) + repr([i.label() for i in serve_pool(fresh)])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("digest", [_corpus_digest, _grid_digest, _schedule_digest])
def test_inputs_are_a_function_of_the_seed(digest):
    pytest.importorskip("repro")
    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_corpus_population_is_fixed_and_only_reordered():
    pytest.importorskip("repro")
    from perfbench.inputs import corpus_population, map_corpus

    population = sorted(i.label() for i in corpus_population())
    assert len(population) == len(set(population)) == 58
    assert sorted(i.label() for i in map_corpus(1)) == population
    assert [i.label() for i in map_corpus(1)] != [i.label() for i in map_corpus(2)]


def test_serve_schedule_shape():
    from perfbench.inputs import (
        SERVE_DUPLICATE_SHARE,
        SERVE_RATE_PER_S,
        SERVE_RESEND_AGE_S,
        serve_schedule,
    )

    seconds = SPEC["run_seconds"]
    schedule, fresh = serve_schedule(7, seconds)
    assert len(schedule) == round(SERVE_RATE_PER_S * seconds)
    resends = [a for a in schedule if a.resend]
    assert len(resends) == round(SERVE_DUPLICATE_SHARE * len(schedule))
    assert fresh == len(schedule) - len(resends)
    assert sorted(a.pool_index for a in schedule if not a.resend) == list(range(fresh))
    due = [a.due_s for a in schedule]
    assert due == sorted(due) and 0.0 <= due[0] and due[-1] <= seconds
    first_due = {}
    for arrival in schedule:
        first_due.setdefault(arrival.pool_index, arrival.due_s)
        if arrival.resend:
            assert arrival.due_s - first_due[arrival.pool_index] >= SERVE_RESEND_AGE_S


# ---------------------------------------------------------------- percentiles
def test_harrell_davis_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert 90 < percentile(values, 90) < 91
    assert percentile([5.0], 90) == pytest.approx(5.0)
    assert percentile([3.0] * 7, 50) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 100)


def test_percentile_moves_smoothly_across_a_gap():
    # The 50th of 100 samples goes from 10 to 20 when one sample on the
    # low side of the gap turns slow; the estimate moves by a tenth of that.
    low = [1.0] * 40 + [10.0] * 10 + [20.0] * 10 + [30.0] * 40
    slower = [1.0] * 40 + [10.0] * 9 + [20.0] * 11 + [30.0] * 40
    assert sorted(low)[49] == 10.0 and sorted(slower)[49] == 20.0
    assert abs(percentile(slower, 50) - percentile(low, 50)) < 1.0


def test_reported_tail_count_matches_the_samples():
    samples = [value / 1000.0 for value in range(1, 101)]
    summary = latency_summary(samples)
    assert summary["samples"] == 100
    assert summary["beyond_p90"] == 10 == beyond(100, TAIL_PERCENTILE)
    assert summary["p50_ms"] == pytest.approx(50.5)


def test_every_workload_leaves_enough_samples_beyond_p90():
    pytest.importorskip("repro")
    from perfbench.inputs import EXPLORE_SEEDS, corpus_population, serve_schedule
    from perfbench.map_corpus import MIN_PASSES

    seconds = SPEC["run_seconds"]
    counts = {
        "map-corpus": MIN_PASSES * len(corpus_population()),
        "explore-sweep": 48 * len(EXPLORE_SEEDS),
        "serve-mixed": len(serve_schedule(0, seconds)[0]),
    }
    for workload, count in counts.items():
        assert beyond(count, TAIL_PERCENTILE) >= MIN_BEYOND_TAIL, workload


# ---------------------------------------------------------------------- spans
def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 8.0, parent=0),
        Span("leaf", 2.0, 3.0, parent=1),
        Span("leaf", 6.0, 6.5, parent=2),
    ]
    assert self_times(spans) == pytest.approx(
        {"root": 4.0, "a": 2.0, "b": 2.5, "leaf": 1.5}
    )
    # The self times partition the root span.
    assert sum(self_times(spans).values()) == pytest.approx(spans[0].duration)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 12)], 0, 10) == pytest.approx(7)
    assert covered([], 0, 10) == 0


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _double(x):
    return 2 * x


def test_tracer_wraps_by_lookup_name_and_restores(tmp_path):
    import sys

    module = sys.modules[__name__]
    tracer = Tracer(clock=_Clock())
    tracer.add(f"{__name__}:_double", "layer.double")
    original = module._double
    with tracer.installed():
        assert module._double is not original
        tracer.rid = 7
        with tracer.span("top"):
            assert module._double(4) == 8
    assert module._double is original
    top, inner = tracer.spans
    assert (inner.name, inner.parent, inner.rid) == ("layer.double", 0, 7)
    assert tracer.self_times() == {"top": 2.0, "layer.double": 1.0}
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path), "test")
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events if e["ph"] == "X"] == ["top", "layer.double"]


# -------------------------------------------------------------- metric names
def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_every_reported_metric_is_declared():
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    used = set()
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        used |= set(re.findall(r'report\.set\(\s*"([^"]+)"', text))
        used |= set(re.findall(r'\(\s*"(serve\.[a-z0-9_]+_ms)",', text))
        used |= set(re.findall(r':\s*"([a-z]+\.[a-z_]+_s)",', text))
    from perfbench.common import solve_counts

    used |= set(solve_counts([]))
    assert used, "no metric names found"
    assert used <= declared, sorted(used - declared)
    report = Report(SPEC)
    with pytest.raises(KeyError):
        report.set("not.a.metric", 1.0)


def test_result_line_carries_exactly_the_declared_metrics():
    report = Report(SPEC)
    for metric in SPEC["end_to_end"]:
        report.set(metric["name"], 1.5)
    untraced = report.result(trace=False, correct=True, attempted=3, failed=0)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    traced = report.result(trace=True, correct=True, attempted=3, failed=0)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    with pytest.raises(KeyError):
        Report(SPEC).result(trace=False, correct=True, attempted=1, failed=0)


def test_host_speed_scale_and_rescale():
    from perfbench.common import REFERENCE_SLICE_S, HostSpeed

    speed = HostSpeed()
    speed.samples = [2 * REFERENCE_SLICE_S] * 2 + [3 * REFERENCE_SLICE_S]
    assert speed.scale() == pytest.approx(0.5)
    report = Report(SPEC)
    report.set("latency_p50_ms", 10.0, "n=100")
    report.set("throughput_per_s", 4.0)
    report.rescale("latency_p50_ms", speed.scale())
    report.rescale("throughput_per_s", 1.0 / speed.scale())
    assert report.values["latency_p50_ms"] == pytest.approx(5.0)
    assert report.values["throughput_per_s"] == pytest.approx(8.0)
    assert report.notes["latency_p50_ms"] == "n=100; as measured 10"
    speed.sample(2)
    assert len(speed.samples) == 5 and speed.spent_s > 0


# ------------------------------------------------------------- correctness
def test_reference_check():
    assert check(1.0, False, 1.0 + 1e-9) == ""
    assert check(1.0, False, 1.01) != ""
    assert check(None, True, INFEASIBLE) == ""
    assert check(None, True, 2.0) != ""
    assert check(2.0, False, INFEASIBLE) != ""
