"""``serve-mixed``: open-loop traffic against a two-replica serve fleet.

``repro serve --replicas 2 --jobs 1`` (a router plus two solving replicas,
one per vCPU of the reference host) on a fresh cache directory receives
Poisson arrivals at :data:`~perfbench.inputs.SERVE_RATE_PER_S` for the
run's window.  A quarter of the arrivals resend an earlier submission and
are answered from the result store; the rest are fresh keys that cost a
real solve plus memory and disk cache writes.  This is the only workload
through ``serve``, ``router`` and ``io``.

The generator is one thread holding at most one connection at a time, so
it cannot become the scheduler under test.  Each request is timed from
when it was *due* to the tier-stamped ``finished_at`` (same host clock),
so neither the poll interval nor a late send hides latency; how late the
sends were is reported as ``bench.gen_lag_p90_ms``.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from .common import OUT, SETUP_LAUNCHES, Context, Outcome, child_env
from .inputs import (
    SERVE_LATENCY_LIMIT_MS,
    Arrival,
    serve_pool,
    serve_schedule,
    warmup_instances,
)
from .reference import check
from .stats import (
    child_pids,
    latency_summary,
    median,
    peak_rss_mb,
    percentile,
    percentile_or_zero,
    process_peak_kb,
    ratio,
)
from .tracing import Tracer

REPLICAS = 2
POLL_INTERVAL_S = 0.25
#: No status poll starts this close to the next due send.
POLL_GUARD_S = 0.02
#: A request not finished this long after its due time is a failure.
REQUEST_TIMEOUT_S = 60.0
MAX_429_RETRIES = 5
BOOT_TIMEOUT_S = 90.0
#: Backlog growth over the window (jobs) above which the run is flagged.
BACKLOG_FLAG = 3.0
#: Paired hit submissions behind ``bench.trace_overhead``.
OVERHEAD_PAIRS = 100


class Fleet:
    """One ``repro serve --replicas 2`` launch, timed from ``Popen`` to ready."""

    def __init__(self, workdir: Path, index: int) -> None:
        from repro.serve import ServeClient

        cache = workdir / f"cache-{index}"
        self.log_path = workdir / f"fleet-{index}.log"
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--replicas", str(REPLICAS),
                 "--jobs", "1", "--port", "0", "--cache-dir", str(cache)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=child_env(),
                cwd=str(workdir),
            )
        try:
            url = self._await_banner(start)
            self.boot_s = time.perf_counter() - start
            self.client = ServeClient(url, timeout=REQUEST_TIMEOUT_S)
            self._warm_up()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_banner(self, start: float) -> str:
        marker = "serving mapping jobs on "
        while time.perf_counter() - start < BOOT_TIMEOUT_S:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            if marker in text:
                return text.split(marker, 1)[1].split()[0]
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited during boot:\n{text[-2000:]}")
            time.sleep(0.005)
        raise RuntimeError("serve did not report its URL in time")

    def _warm_up(self) -> None:
        """One never-reused job finished on each replica."""
        from repro.io import JobSubmission

        served = set()
        for instance in warmup_instances():
            design, board = instance.build()
            status = self.client.submit(JobSubmission.from_objects(board, design))
            while not status.terminal:
                time.sleep(0.005)
                status = self.client.status(status.job_id)
            if status.result_status != "ok":
                raise RuntimeError(f"warm-up job failed: {status.error}")
            served.add(status.replica)
            if len(served) == REPLICAS:
                return
        raise RuntimeError(f"warm-up reached only replicas {sorted(served)}")

    def processes(self) -> List[int]:
        return [self.proc.pid] + child_pids(self.proc.pid)

    def stop(self) -> None:
        """Shut the fleet down and reap every process it started."""
        if self.proc.poll() is not None:
            return
        pids = self.processes()
        client = getattr(self, "client", None)
        try:
            if client is None:
                raise OSError("no client yet")
            client.shutdown()
        except Exception:  # any failure to ask politely falls back to a signal
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in pids[1:]:
            _kill_if_alive(pid)


def _kill_if_alive(pid: int) -> None:
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


@dataclass
class Request:
    arrival: Arrival
    lag_s: float = 0.0
    rtt_s: float = 0.0
    job_id: str = ""
    status: Optional[object] = None
    last_poll: float = 0.0
    error: str = ""


class OpenLoop:
    """Single-threaded generator: sends on schedule, polls in between."""

    def __init__(self, client, submissions, schedule: List[Arrival], seconds: float,
                 tracer: Optional[Tracer]) -> None:
        self.client = client
        self.submissions = submissions
        self.schedule = schedule
        self.seconds = seconds
        self.tracer = tracer
        self.requests: List[Request] = []
        self.retries_429 = 0
        self.shed = 0
        self.backlog: List[Tuple[float, int]] = []

    def call(self, name: str, rid: int, fn, *args):
        if self.tracer is None:
            return fn(*args)
        self.tracer.rid = rid
        with self.tracer.span(name):
            return fn(*args)

    def _send(self, request: Request) -> None:
        from repro.serve import ServeClientError

        submission = self.submissions[request.arrival.pool_index]
        for attempt in range(MAX_429_RETRIES + 1):
            try:
                t0 = time.perf_counter()
                request.status = self.call(
                    "serve.submit", request.arrival.index, self.client.submit, submission
                )
                request.rtt_s = time.perf_counter() - t0
                request.job_id = request.status.job_id
                return
            except ServeClientError as exc:
                if exc.status == 429 and attempt < MAX_429_RETRIES:
                    self.retries_429 += 1
                    time.sleep((exc.retry_after_ms or 50.0) / 1000.0)
                    continue
                if exc.status == 503:
                    self.shed += 1
                request.error = f"submit: {exc}"
                return

    def _poll(self, request: Request) -> None:
        from repro.serve import ServeClientError

        request.last_poll = time.perf_counter()
        try:
            request.status = self.call(
                "serve.poll", request.arrival.index, self.client.status, request.job_id
            )
        except ServeClientError as exc:
            request.error = f"status: {exc}"

    def run(self, t0_perf: float) -> None:
        pending: Deque[Request] = deque()
        index = 0
        while index < len(self.schedule) or pending:
            now = time.perf_counter() - t0_perf
            if index < len(self.schedule) and now >= self.schedule[index].due_s:
                request = Request(self.schedule[index], lag_s=now - self.schedule[index].due_s)
                index += 1
                self.requests.append(request)
                self._send(request)
                request.last_poll = time.perf_counter()
                if request.status is not None and not request.status.terminal:
                    pending.append(request)
                if now <= self.seconds:
                    self.backlog.append((now, len(pending)))
                continue
            if now > self.seconds + REQUEST_TIMEOUT_S:
                for request in pending:
                    request.error = "timed out"
                return
            next_due = self.schedule[index].due_s if index < len(self.schedule) else math.inf
            if pending and time.perf_counter() - pending[0].last_poll >= POLL_INTERVAL_S \
                    and next_due - now > POLL_GUARD_S:
                request = pending.popleft()
                self._poll(request)
                if not request.error and not request.status.terminal:
                    pending.append(request)
                continue
            wait = next_due - now
            if pending:
                wait = min(wait, pending[0].last_poll + POLL_INTERVAL_S - time.perf_counter())
            time.sleep(min(max(wait, 0.0), 0.05))


def _backlog_growth(samples: List[Tuple[float, int]], seconds: float) -> float:
    """Least-squares slope of outstanding jobs over the window, times its length."""
    if len(samples) < 2:
        return 0.0
    mean_t = sum(t for t, _ in samples) / len(samples)
    mean_b = sum(b for _, b in samples) / len(samples)
    var = sum((t - mean_t) ** 2 for t, _ in samples)
    cov = sum((t - mean_t) * (b - mean_b) for t, b in samples)
    return ratio(cov, var) * seconds


def run(ctx: Context) -> Outcome:
    from repro.io import JobSubmission

    schedule, fresh = serve_schedule(ctx.seed, ctx.seconds)
    pool = serve_pool(fresh)
    built = [instance.build() for instance in pool]
    submissions = [JobSubmission.from_objects(b, d, label=i.label())
                   for i, (d, b) in zip(pool, built)]

    workdir = OUT / f"serve-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    fleets: List[Fleet] = []
    try:
        for index in range(SETUP_LAUNCHES):
            if fleets:
                fleets[-1].stop()
            ctx.speed.sample(5)
            fleets.append(Fleet(workdir, index))
        fleet = fleets[-1]
        ctx.report.set("setup_s", median(f.setup_s for f in fleets),
                       f"median of {len(fleets)} fleet launches")
        ctx.report.set("router.boot_s", median(f.boot_s for f in fleets))

        tracer = Tracer() if ctx.trace else None
        loop = OpenLoop(fleet.client, submissions, schedule, ctx.seconds, tracer)
        t0_unix, t0_perf = time.time(), time.perf_counter()
        if tracer is not None:
            tracer.rid = None
            with tracer.span("bench.window"):
                loop.run(t0_perf)
        else:
            loop.run(t0_perf)
        fleet_kb = [process_peak_kb(pid) or 0 for pid in fleet.processes()]
        batch_mean = _batch_size_mean(fleet.client)
        rss = peak_rss_mb(fleet_kb)
        if tracer is not None:
            _trace_overhead(ctx, fleet.client, submissions, loop, tracer)
    finally:
        for f in fleets:
            f.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    outcome = _verify(ctx, pool, built, loop)
    _report(ctx, loop, t0_unix, rss, batch_mean)
    if tracer is not None:
        selfs = tracer.self_times()
        window = sum(s.duration for s in tracer.spans if s.name == "bench.window")
        ctx.report.set("bench.unattributed_share", ratio(selfs.get("bench.window", 0.0), window))
        tracer.write_chrome(ctx.trace_path(), f"perfbench {ctx.workload}")
        ctx.note(f"{len(tracer.spans)} client spans written to {ctx.trace_path()}")
    return outcome


def _batch_size_mean(client) -> float:
    """Mean engine batch size over both replicas, from their health reports."""
    from repro.serve import ServeClient

    total = count = 0.0
    for replica in client.health().replicas or []:
        batches = ServeClient(replica["url"], timeout=10).health().details.get("batches", {})
        n = int(batches.get("count") or 0)
        total += (batches.get("mean_size") or 0.0) * n
        count += n
    return ratio(total, count)


def _trace_overhead(ctx: Context, client, submissions, loop: OpenLoop, tracer: Tracer) -> None:
    """Traced ÷ untraced wall of the same store-hit submissions, paired."""
    done = [r for r in loop.requests if r.status is not None and r.status.terminal]
    if not done:
        return
    walls = {"traced": 0.0, "untraced": 0.0}
    for pair in range(OVERHEAD_PAIRS):
        submission = submissions[done[pair % len(done)].arrival.pool_index]
        sides = [("untraced", lambda s=submission: client.submit(s)),
                 ("traced", lambda s=submission: loop.call("serve.submit", -1,
                                                            client.submit, s))]
        if pair % 2:
            sides.reverse()
        for side, send in sides:
            t0 = time.perf_counter()
            send()
            walls[side] += time.perf_counter() - t0
    ctx.report.set("bench.trace_overhead", ratio(walls["traced"], walls["untraced"]))


def _verify(ctx: Context, pool, built, loop: OpenLoop) -> Outcome:
    outcome = Outcome(attempted=len(loop.requests))
    fingerprints: Dict[int, set] = {}
    for request in loop.requests:
        label = pool[request.arrival.pool_index].label()
        status = request.status
        if request.error or status is None:
            outcome.fail(f"request {request.arrival.index} ({label}): {request.error}")
            continue
        if status.state != "done" or status.result_status not in ("ok", "failed"):
            outcome.fail(f"request {request.arrival.index} ({label}): {status.state} "
                         f"{status.result_status} {status.error}")
            continue
        reference = ctx.references.get(label, lambda: built[request.arrival.pool_index])
        reason = check(status.objective, status.result_status == "failed", reference)
        if reason:
            outcome.fail(f"request {request.arrival.index} ({label}): {reason}")
        fingerprints.setdefault(request.arrival.pool_index, set()).add(status.fingerprint)
    for pool_index, seen in fingerprints.items():
        if len(seen) > 1:
            outcome.fail(f"{pool[pool_index].label()}: {len(seen)} fingerprints for one key")
    return outcome


def _report(ctx: Context, loop: OpenLoop, t0_unix: float, rss: float, batch_mean: float) -> None:
    ok = [r for r in loop.requests
          if not r.error and r.status is not None and r.status.finished_at is not None]
    latency = {id(r): r.status.finished_at - (t0_unix + r.arrival.due_s) for r in ok}
    samples = list(latency.values())
    summary = latency_summary(samples)
    ctx.latencies_ms = [value * 1000.0 for value in samples]
    limit_s = SERVE_LATENCY_LIMIT_MS / 1000.0
    good = sum(1 for value in samples if value <= limit_s)
    # The window runs from the start of the schedule to the last
    # completion, so a fleet that falls behind is charged for its drain.
    window = max((r.status.finished_at for r in ok), default=t0_unix + ctx.seconds) - t0_unix
    counts = f"n={summary['samples']}, {summary['beyond_p90']} beyond p90"
    ctx.report.set("throughput_per_s", good / window,
                   f"goodput: {good} of {len(loop.requests)} within "
                   f"{SERVE_LATENCY_LIMIT_MS:g} ms over {window:.2f}s")
    ctx.report.set("latency_p50_ms", summary["p50_ms"], counts)
    ctx.report.set("latency_p90_ms", summary["p90_ms"], counts)
    ctx.report.set("peak_rss_mb", rss, "largest of bench, router and replicas")
    ctx.report.set("bench.latency_samples", summary["samples"])
    ctx.report.set("bench.beyond_p90", summary["beyond_p90"])

    hits = [r for r in ok if r.status.cache_hit]
    misses = [r for r in ok if not r.status.cache_hit and not r.status.deduped
              and r.status.started_at is not None]
    queue = [r.status.started_at - r.status.submitted_at for r in misses]
    service = [r.status.finished_at - r.status.started_at for r in misses]
    overhead = [r.rtt_s - (r.status.finished_at - r.status.submitted_at) for r in hits]
    for name, values, q in (
        ("serve.queue_wait_p50_ms", queue, 50.0),
        ("serve.queue_wait_p90_ms", queue, 90.0),
        ("serve.service_p50_ms", service, 50.0),
        ("serve.service_p90_ms", service, 90.0),
        ("serve.hit_latency_p50_ms", [latency[id(r)] for r in hits], 50.0),
        ("serve.client_overhead_p50_ms", overhead, 50.0),
    ):
        ctx.report.set(name, percentile_or_zero(values, q) * 1000.0)
    ctx.report.set("serve.hit_ratio", ratio(len(hits), len(loop.requests)))
    ctx.report.set("serve.batch_size_mean", batch_mean)
    ctx.report.set("serve.retries_429", loop.retries_429)
    ctx.report.set("serve.shed", loop.shed)
    shares: Dict[str, int] = {}
    for r in ok:
        shares[r.status.replica] = shares.get(r.status.replica, 0) + 1
    mean_share = len(ok) / REPLICAS
    ctx.report.set("router.shard_imbalance", ratio(max(shares.values(), default=0), mean_share))
    ctx.report.set("bench.gen_lag_p90_ms",
                   percentile([r.lag_s for r in loop.requests], 90.0) * 1000.0)
    growth = _backlog_growth(loop.backlog, ctx.seconds)
    ctx.report.set("bench.backlog_growth", growth)
    ctx.note(f"{len(loop.requests)} arrivals ({len(hits)} store hits, {len(misses)} solves, "
             f"{len(ok) - len(hits) - len(misses)} deduped in flight); "
             f"shards {dict(sorted(shares.items()))}")
    if growth > BACKLOG_FLAG:
        ctx.note(f"WARNING backlog grew by {growth:.1f} jobs over the window: "
                 "the fleet is not keeping up with the offered rate")
