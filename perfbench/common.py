"""What every workload shares: run context, set-up probes, solver counts."""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from .metrics import ROOT, Report
from .reference import ReferenceCache
from .stats import median, ratio

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Fresh launches per run behind each ``setup_s`` median.
SETUP_LAUNCHES = 3

#: What one calibration slice takes on the reference host: the speed the
#: CPU-bound times are reported at.
REFERENCE_SLICE_S = 0.008
#: Least wall time between two slices a closed loop interleaves.
SLICE_EVERY_S = 0.25


def calibration_slice() -> float:
    """Seconds a fixed pure-Python arithmetic loop takes now.

    It allocates nothing the garbage collector or the allocator would
    notice, so its time depends on the host and not on the heap the
    workload left behind; a slice that built dicts and lists ran 35%
    slower after a large map than before the first one.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs this run, from slices interleaved with the work.

    The shared host drifts by up to 40% over minutes, and a fixed slice's
    time follows it: over 14 corpus passes in one process the pass wall
    spread 0.16 of its median and the wall over the adjacent slices 0.048.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall time spent in slices, for loops to leave out of their own.
        self.spent_s = 0.0
        self._last = -math.inf

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        self.samples += [calibration_slice() for _ in range(count)]
        self._last = time.perf_counter()
        self.spent_s += self._last - start

    def maybe_sample(self) -> None:
        """One slice, if :data:`SLICE_EVERY_S` has passed since the last."""
        if time.perf_counter() - self._last >= SLICE_EVERY_S:
            self.sample()

    def slice_ms(self) -> float:
        return median(self.samples) * 1000.0

    def scale(self) -> float:
        """Reference-host seconds per second measured in this run."""
        return REFERENCE_SLICE_S / median(self.samples)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    report: Report
    references: ReferenceCache
    speed: HostSpeed = field(default_factory=HostSpeed)
    log: List[str] = field(default_factory=list)
    #: Per-operation latencies (ms) behind the latency metrics, kept in
    #: the saved result file for distribution plots.
    latencies_ms: List[float] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.log.append(line)

    def trace_path(self) -> str:
        return str(OUT / f"trace-{self.workload}-seed{self.seed}.json")


@dataclass
class Outcome:
    """Operations attempted and the failures among them, with reasons."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


def child_env() -> Dict[str, str]:
    """Environment of every child: ``repro`` importable from ``src``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    return env


def time_probe(workload: str, timeout: float = 120.0) -> Tuple[float, Dict[str, Any]]:
    """Launch the set-up probe; seconds from launch to its report, and the report.

    The clock stops when the report line arrives, so interpreter start-up
    is counted and the child's exit is not.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload],
        env=child_env(),
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
    return elapsed, json.loads(line)


def measure_setup(ctx: Context) -> None:
    """Median fresh-launch set-up time, plus the probe's own import split."""
    walls, reports = [], []
    for _ in range(SETUP_LAUNCHES):
        ctx.speed.sample(5)
        wall, report = time_probe(ctx.workload)
        walls.append(wall)
        reports.append(report)
    ctx.report.set("setup_s", median(walls), f"median of {len(walls)} launches")
    ctx.report.set("proc.import_s", median(r["import_s"] for r in reports))
    if all("first_map_s" in r for r in reports):
        ctx.report.set("proc.first_map_s", median(r["first_map_s"] for r in reports))


def solve_counts(stats: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """The deterministic ``ilp.*`` counts summed over solve-stat documents."""

    def total(docs: List[Mapping[str, Any]], key: str) -> int:
        return sum(int(doc.get(key, 0) or 0) for doc in docs)

    docs = list(stats)
    lp = total(docs, "lp_solves")
    dive_lp = total(docs, "dive_lp_solves")
    return {
        "ilp.nodes": total(docs, "nodes_explored"),
        "ilp.lp_solves_total": lp + dive_lp,
        "ilp.pivots_total": total(docs, "simplex_iterations") + total(docs, "dive_pivots"),
        "ilp.refactorizations": total(docs, "refactorizations"),
        "ilp.warm_lp_ratio": ratio(total(docs, "warm_lp_solves"), lp),
        "ilp.heuristic_yield": ratio(total(docs, "heuristic_incumbents"), dive_lp),
    }


def alternate(index: int, first, second) -> None:
    """Run two thunks, swapping their order on odd ``index`` to cancel drift."""
    if index % 2:
        second()
        first()
    else:
        first()
        second()
