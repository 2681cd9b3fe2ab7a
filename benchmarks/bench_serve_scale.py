#!/usr/bin/env python
"""Sharded serve-tier benchmark: open-loop traffic against ``--replicas N``.

Boots the replicated serve tier (``repro serve --replicas N``: router +
replica processes over one shared on-disk cache) as a real subprocess,
then drives it through three open-loop traffic phases
(:mod:`repro.bench.loadgen`):

1. **steady** — Poisson arrivals, duplicate-heavy mix: exercises
   consistent-hash sharding and canonical-hash dedupe (in flight, in
   memory, and cross-shard through the shared disk store);
2. **warm** — the same designs resubmitted under a different per-job
   time budget: a different cache key but the same warm-state identity,
   so replicas seed their solves from chain contexts sibling replicas
   exported — the cross-replica warm-reuse path;
3. **burst** — bursty arrivals above the admission budget with a
   low-priority slice: exercises 429 backpressure and 503 shedding.

Afterwards every unique served mapping is recomputed **directly** on an
in-process :class:`~repro.engine.MappingEngine` (fresh, cache-less) and
compared fingerprint by fingerprint: the sharded tier changes *where*
mappings are computed — and warm seeds change where solves *start* —
never *what* they produce.  The direct reference jobs are derived by
re-building each phase's deterministic arrival schedule, so they cover
exactly the submissions served.

The document lands in ``BENCH_serve_scale.json`` (``--artifact-dir``,
default ``bench-artifacts``); ``scripts/bench_compare.py --check``
validates it and CI gates on the *deterministic* counters — dedupe
totals, shard balance, warm reuses and imports, fingerprint equality —
never on wall time or on the timing-dependent shed/retry counts, which
are reported for humans only.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_scale.py --quick
    PYTHONPATH=src python benchmarks/bench_serve_scale.py \
        --replicas 3 --artifact-dir bench-artifacts
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.artifacts import (  # noqa: E402
    serve_scale_artifact,
    write_bench_artifact,
)
from repro.bench.loadgen import (  # noqa: E402
    LoadgenConfig,
    build_schedule,
    run_loadgen,
)
from repro.cli import BUILTIN_BOARDS, BUILTIN_DESIGNS  # noqa: E402
from repro.core import CostWeights  # noqa: E402
from repro.engine import MappingEngine, MappingJob  # noqa: E402
from repro.engine.jobs import payload_cache_key  # noqa: E402
from repro.io.serialize import board_from_dict, design_from_dict  # noqa: E402
from repro.io.serve import JobSubmission  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

BOARD = "virtex-xcv1000"
DESIGNS = ["fir-filter", "matrix-multiply", "fft"]
SOLVER = "bnb-pure"
#: The alternate per-job time budget of the warm phase.  Generous enough
#: never to trigger, so the mapping is identical — but part of the cache
#: key, which is exactly what forces a fresh solve with the same
#: warm-state identity.
WARM_TIMEOUT = 120.0
STARTUP_TIMEOUT = 90.0
#: Boot attempts before giving up.  Port binds and replica boots can race
#: with a previous tier still tearing down on a shared CI box; a bounded
#: retry absorbs that without masking a genuinely broken tier.
BOOT_ATTEMPTS = 3
#: Most recent serve-tier log lines kept for failure reports.
LOG_TAIL = 400


def _drain(stream, sink: Deque[str]) -> None:
    """Pump a subprocess stdout into a bounded deque until EOF.

    Keeps the pipe from filling (which would block the tier's replicas
    on ``print``) while retaining the recent tail for failure reports.
    """
    for line in iter(stream.readline, ""):
        sink.append(line.rstrip())


def _boot_once(
    replicas: int, max_inflight: int, shed_priority: int, cache_dir: str,
    logs: Deque[str],
) -> Tuple[Optional[subprocess.Popen], Optional[str]]:
    """One boot attempt: (process, url) on success, (None, None) otherwise."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--replicas", str(replicas),
            "--port", "0",
            "--cache-dir", cache_dir,
            "--max-batch", "4",
            "--max-wait-ms", "25",
            "--max-inflight", str(max_inflight),
            "--shed-priority", str(shed_priority),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT
    banner = "serving mapping jobs on "
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                return None, None
            continue
        logs.append(line.rstrip())
        if banner in line:
            url = line.split(banner, 1)[1].split()[0]
            pump = threading.Thread(
                target=_drain, args=(process.stdout, logs), daemon=True
            )
            pump.start()
            return process, url
    process.kill()
    process.wait()
    return None, None


def boot_tier(
    replicas: int, max_inflight: int, shed_priority: int, cache_dir: str,
    logs: Deque[str],
) -> Tuple[subprocess.Popen, str]:
    """Start ``repro serve --replicas N`` with a bounded boot retry."""
    for attempt in range(1, BOOT_ATTEMPTS + 1):
        process, url = _boot_once(
            replicas, max_inflight, shed_priority, cache_dir, logs
        )
        if process is not None and url is not None:
            return process, url
        print(
            f"[serve-scale] boot attempt {attempt}/{BOOT_ATTEMPTS} failed",
            file=sys.stderr,
        )
        if attempt < BOOT_ATTEMPTS:
            time.sleep(2.0 * attempt)
    raise RuntimeError(
        "serve tier did not come up after "
        f"{BOOT_ATTEMPTS} attempts:\n" + "\n".join(logs)
    )


def build_templates(timeout: Optional[float]) -> List[JobSubmission]:
    board = BUILTIN_BOARDS[BOARD]()
    return [
        JobSubmission.from_objects(
            board,
            BUILTIN_DESIGNS[name](),
            solver=SOLVER,
            timeout=timeout,
            label=name,
        )
        for name in DESIGNS
    ]


def job_from_submission(submission: JobSubmission) -> MappingJob:
    """The engine job a submission maps to — mirroring the serve tier.

    Must stay field-for-field equivalent to the service's own conversion
    so the direct reference run shares cache keys with the served jobs.
    """
    return MappingJob(
        board=board_from_dict(submission.board),
        design=design_from_dict(submission.design),
        weights=CostWeights(**dict(submission.weights)),
        solver=submission.solver,
        solver_options=dict(submission.solver_options),
        capacity_mode=submission.capacity_mode,
        port_estimation=submission.port_estimation,
        warm_start=submission.warm_start,
        warm_retries=submission.warm_retries,
        mode=submission.mode,
        gap_limit=submission.gap_limit,
        label=submission.display_label(),
        timeout=submission.timeout,
    )


def direct_fingerprints(
    observed_keys: set, configs: Dict[str, LoadgenConfig]
) -> Dict[str, str]:
    """Admission key -> fingerprint of a direct cache-less engine run.

    Candidates are derived by re-building every phase's deterministic
    arrival schedule, so they cover exactly the submissions the tier saw.
    Only keys actually observed on the wire are solved.
    """
    candidates: Dict[str, MappingJob] = {}
    for config in configs.values():
        for arrival in build_schedule(config):
            job = job_from_submission(arrival.submission)
            candidates.setdefault(payload_cache_key(job.to_payload()), job)
    wanted = [candidates[key] for key in sorted(observed_keys & set(candidates))]
    engine = MappingEngine(jobs=1)
    results = engine.run(wanted)
    reference: Dict[str, str] = {}
    for job, result in zip(wanted, results):
        reference[payload_cache_key(job.to_payload())] = result.fingerprint
    return reference


def check_fingerprints(
    phases: Dict[str, Dict[str, Any]], configs: Dict[str, LoadgenConfig]
) -> Dict[str, Any]:
    served: Dict[str, str] = {}
    for report in phases.values():
        for key, fingerprint in (report.get("fingerprints") or {}).items():
            served.setdefault(key, fingerprint)
    reference = direct_fingerprints(set(served), configs)
    mismatches = []
    unknown = sorted(set(served) - set(reference))
    for key, fingerprint in sorted(served.items()):
        expected = reference.get(key)
        if expected is not None and expected != fingerprint:
            mismatches.append(
                {"cache_key": key, "served": fingerprint, "direct": expected}
            )
    return {
        "compared": len(served) - len(unknown),
        "matched": len(served) - len(unknown) - len(mismatches),
        "mismatches": mismatches,
        "unknown_keys": unknown,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--max-inflight", type=int, default=2)
    parser.add_argument("--shed-priority", type=int, default=0)
    parser.add_argument("--duration", type=float, default=8.0,
                        help="seconds per traffic phase")
    parser.add_argument("--rate", type=float, default=4.0,
                        help="mean arrivals/second of the steady phase")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="short CI-sized phases")
    parser.add_argument("--artifact-dir", default="bench-artifacts")
    args = parser.parse_args()
    if args.quick:
        args.duration = min(args.duration, 5.0)
        args.rate = min(args.rate, 3.0)

    cache_dir = tempfile.mkdtemp(prefix="bench-serve-scale-")
    logs: Deque[str] = deque(maxlen=LOG_TAIL)
    started = time.monotonic()
    process, url = boot_tier(
        args.replicas, args.max_inflight, args.shed_priority, cache_dir, logs
    )
    print(f"[serve-scale] tier up at {url} "
          f"({args.replicas} replicas, cache {cache_dir})")
    teardown_error = ""
    try:
        client = ServeClient(url)
        cold = build_templates(timeout=None)
        warm = build_templates(timeout=WARM_TIMEOUT)
        configs: Dict[str, LoadgenConfig] = {
            "steady": LoadgenConfig(
                url=url, templates=cold, duration_s=args.duration,
                rate=args.rate, arrival="poisson", duplicate_ratio=0.5,
                seed=args.seed,
            ),
            "warm": LoadgenConfig(
                url=url, templates=warm, duration_s=args.duration / 2,
                rate=args.rate, arrival="uniform", duplicate_ratio=0.25,
                seed=args.seed + 1,
            ),
            "burst": LoadgenConfig(
                url=url, templates=cold, duration_s=args.duration,
                rate=args.rate * 4, arrival="bursty", duplicate_ratio=0.6,
                fast_ratio=0.2, low_priority_ratio=0.3, seed=args.seed + 2,
            ),
        }
        phases: Dict[str, Dict[str, Any]] = {}

        phases["steady"] = run_loadgen(configs["steady"])
        print(f"[serve-scale] steady: {phases['steady']['completed']}/"
              f"{phases['steady']['scheduled']} done, "
              f"{phases['steady']['deduped']} deduped, "
              f"{phases['steady']['cache_hits']} cache hits")

        phases["warm"] = run_loadgen(configs["warm"])
        print(f"[serve-scale] warm: {phases['warm']['completed']}/"
              f"{phases['warm']['scheduled']} done")

        phases["burst"] = run_loadgen(configs["burst"])
        print(f"[serve-scale] burst: {phases['burst']['completed']} done, "
              f"{phases['burst']['shed']} shed, "
              f"{phases['burst']['retries_429']} retries")

        health = client.health().to_wire()
        fingerprint_check = check_fingerprints(phases, configs)
        print(f"[serve-scale] fingerprints: "
              f"{fingerprint_check['matched']}/{fingerprint_check['compared']} "
              f"match the direct engine run")

        client.shutdown()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            teardown_error = "serve tier did not exit within 30s of shutdown"
        else:
            if process.returncode != 0:
                teardown_error = (
                    f"serve tier exited with code {process.returncode}"
                )
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)

    artifact = serve_scale_artifact(
        replicas=args.replicas,
        max_inflight=args.max_inflight,
        shed_priority=args.shed_priority,
        phases=phases,
        router_health=health,
        fingerprint_check=fingerprint_check,
        elapsed=time.monotonic() - started,
    )
    path = write_bench_artifact("serve_scale", artifact, args.artifact_dir)
    print(f"[serve-scale] artifact written to {path}")
    print(json.dumps({
        "totals": artifact["totals"],
        "shard_counts": artifact["shard_counts"],
        "warm": artifact["warm"],
        "fingerprint_check": {
            k: v for k, v in fingerprint_check.items() if k != "mismatches"
        },
    }, indent=2))

    failures = []
    totals = artifact["totals"]
    if teardown_error:
        failures.append(teardown_error)
    if totals["errors"]:
        failures.append(f"{totals['errors']} loadgen errors")
    if totals["fingerprint_conflicts"]:
        failures.append("served fingerprints conflicted across requests")
    if fingerprint_check["mismatches"]:
        failures.append("served fingerprints diverged from the direct run")
    if fingerprint_check["unknown_keys"]:
        failures.append(
            "served cache keys missing from the rebuilt schedules: "
            + ", ".join(fingerprint_check["unknown_keys"][:3])
        )
    if fingerprint_check["compared"] == 0:
        failures.append("nothing compared against the direct run")
    if totals["deduped"] + totals["cache_hits"] == 0:
        failures.append("duplicate-heavy traffic produced no dedupe at all")
    if failures:
        for failure in failures:
            print(f"[serve-scale] FAIL: {failure}", file=sys.stderr)
        print("[serve-scale] last serve-tier log lines:", file=sys.stderr)
        for line in list(logs)[-60:]:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("[serve-scale] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
