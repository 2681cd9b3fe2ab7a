"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload map-corpus --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that derives the per-layer metrics and writes a
Chrome trace-event file under ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output matched its reference; without a ``src/`` tree to measure
the command exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("map-corpus", "explore-sweep", "serve-mixed")

#: End-to-end metrics reported at the reference host speed, with the power
#: of the run's speed scale each is multiplied by.  Only the closed loops'
#: metrics are: their time is the caller's own computing, which the slice
#: tracks.  serve-mixed's times are paced by its arrival schedule and
#: batching window and shared among four processes on two vCPUs, which
#: the slice does not track, so they stay as measured.
_COMPUTE_BOUND = {"setup_s": 1, "throughput_per_s": -1,
                  "latency_p50_ms": 1, "latency_p90_ms": 1}
AT_REFERENCE_SPEED = {
    "map-corpus": _COMPUTE_BOUND,
    "explore-sweep": _COMPUTE_BOUND,
    "serve-mixed": {},
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        import repro  # the program under test

        from perfbench import explore_sweep, map_corpus, serve_mixed
        from perfbench.common import OUT, REFERENCE_SLICE_S, SRC, Context
        from perfbench.metrics import Report
        from perfbench.reference import ReferenceCache
        from perfbench.stats import host_metadata, ratio
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    try:
        report = Report()
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        report=report,
        references=ReferenceCache(OUT, SRC),
    )
    runner = {
        "map-corpus": map_corpus.run,
        "explore-sweep": explore_sweep.run,
        "serve-mixed": serve_mixed.run,
    }[args.workload]
    started = time.perf_counter()
    outcome = runner(ctx)
    ctx.references.save()
    scale = ctx.speed.scale()
    for name, power in AT_REFERENCE_SPEED[args.workload].items():
        if name in report.values:
            report.rescale(name, scale ** power)
    report.set("bench.calibration_ms", ctx.speed.slice_ms(),
               f"median of {len(ctx.speed.samples)} slices; "
               f"reference {REFERENCE_SLICE_S * 1000:g} ms")
    report.set("fail_ratio", ratio(outcome.failed, outcome.attempted),
               f"{outcome.failed} of {outcome.attempted}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = report.result(ctx.trace, correct, max(1, outcome.attempted), outcome.failed)

    host = host_metadata()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ({time.perf_counter() - started:.1f}s, "
          f"{ctx.references.solved} reference solves)")
    print("host " + json.dumps(host, sort_keys=True))
    for line in ctx.log:
        print(line)
    print("metrics:")
    for line in report.lines():
        print(line)
    if ctx.trace and report.not_exercised():
        print("not exercised on this workload (reported as 0): "
              + ", ".join(report.not_exercised()))
    for reason in outcome.failures[:20]:
        print(f"FAILED {reason}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"host": host, "notes": ctx.log, "failures": outcome.failures,
                    "latencies_ms": ctx.latencies_ms, **result}),
        encoding="utf-8",
    )
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
