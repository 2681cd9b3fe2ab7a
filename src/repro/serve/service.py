"""The mapping service: queue, batcher, store and engine glued together.

:class:`MappingService` is the transport-free core of ``repro serve`` —
the HTTP server (:mod:`repro.serve.server`) is a thin routing shell over
it, and the tests drive it directly.  One service owns:

* a :class:`~repro.serve.queue.JobQueue` of pending submissions,
* a :class:`~repro.serve.batcher.MicroBatcher` that coalesces bursts
  into engine batches (``max_batch`` / ``max_wait_ms``),
* a :class:`~repro.serve.store.ResultStore` memoizing finished results
  by canonical cache key (in-memory LRU + the engine's on-disk cache),
* one :class:`~repro.engine.MappingEngine` whose persistent worker pool
  and warm state survive across requests, driven from a single
  dispatcher thread so the event loop never blocks on a solve.

Deduplication happens at two levels: an identical submission arriving
while its twin is queued or running attaches to the same ticket
(**in-flight dedupe** — one solve, many answers), and identical jobs
inside one micro-batch are coalesced by the engine itself.  Results are
fingerprint-identical to the equivalent ``repro map``/``repro batch``
run because every path funnels into the same ``execute_payload``.

Everything except ``engine.run`` happens on the owning event loop, so
the service needs no locks; ``engine.run`` executes on a dedicated
single worker thread and touches no service state.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import math
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from ..core.objective import CostWeights
from ..engine import MappingEngine, MappingJob
from ..engine.jobs import payload_cache_key, warm_state_key
from ..ilp import resolve_backend
from ..ilp.errors import ModelError
from ..io.serialize import SerializationError, board_from_dict, design_from_dict
from ..io.serve import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_EXPIRED,
    STATE_QUEUED,
    STATE_RUNNING,
    HealthReport,
    JobStatus,
    JobSubmission,
)
from .batcher import MicroBatcher
from .queue import JobQueue, QueuedTicket
from .store import TIER_MEMORY, ResultStore, WarmStateStore

__all__ = [
    "ServeError",
    "MappingService",
    "ReplicaSupervisor",
    "warm_state_key",  # re-exported from repro.engine.jobs
]

#: Finished job records (and their result documents) retained for client
#: pickup; the oldest fall off first.
DEFAULT_RECORD_ENTRIES = 1024

#: Per-job latency records kept for the serve artifact's percentiles.
_METRICS_WINDOW = 4096


class ServeError(Exception):
    """A submission the service refuses (bad board/design/solver/mode)."""


def _document_gap(document: Optional[Dict[str, Any]]) -> Optional[float]:
    """Certified gap of a fast-mode result document (``None`` otherwise)."""
    if not document:
        return None
    stats = document.get("solve_stats") or {}
    if not isinstance(stats, dict) or stats.get("mode") != "fast":
        return None
    gap = stats.get("gap")
    if isinstance(gap, (int, float)) and math.isfinite(gap):
        return float(gap)
    return None


class MappingService:
    """Accepts mapping submissions and serves batched, memoized results."""

    def __init__(
        self,
        jobs: int = 1,
        max_batch: int = 4,
        max_wait_ms: float = 25.0,
        cache_dir: Optional[str] = None,
        memory_entries: int = 256,
        disk_entries: Optional[int] = None,
        record_entries: int = DEFAULT_RECORD_ENTRIES,
        retries: int = 0,
        default_timeout: Optional[float] = None,
        mp_context: Optional[str] = None,
        engine: Optional[MappingEngine] = None,
        instance_name: str = "",
        warm_sharing: bool = False,
    ) -> None:
        if engine is None:
            # The dispatcher runs the engine from a worker thread; forking
            # a multi-threaded process is deprecated (3.12+) and unsafe,
            # so parallel serving defaults to spawn-based workers.
            if mp_context is None and jobs > 1:
                mp_context = "spawn"
            engine = MappingEngine(
                jobs=jobs,
                cache_dir=cache_dir,
                retries=retries,
                timeout=default_timeout,
                mp_context=mp_context,
            )
        self.engine = engine
        if self.engine.cache is not None and disk_entries is not None:
            # Bound the on-disk tier: a long-lived server must not grow
            # its result directory forever (put() trims past the bound).
            if disk_entries < 1:
                raise ValueError("disk_entries must be >= 1 (or None)")
            self.engine.cache.max_entries = disk_entries
        self.queue = JobQueue()
        self.batcher = MicroBatcher(self.queue, max_batch, max_wait_ms)
        self.store = ResultStore(memory_entries=memory_entries, disk=engine.cache)
        self.record_entries = max(1, record_entries)
        #: This replica's name in a sharded deployment (stamps warm-state
        #: exports and the health report); empty for a standalone service.
        self.instance = instance_name
        #: Cross-replica warm-state exchange, enabled for sharded
        #: deployments whose replicas share one cache directory.  Exact
        #: pipeline jobs export their final chain context here and seed
        #: their solves from whatever a sibling exported first.  The
        #: ``disk_entries`` bound covers this directory too.
        self.warm: Optional[WarmStateStore] = None
        if warm_sharing and self.engine.cache is not None:
            self.warm = WarmStateStore(
                self.engine.cache.directory / "_warm",
                instance=instance_name,
                max_entries=disk_entries,
            )

        self._ids = itertools.count(1)
        self._records: Dict[str, JobStatus] = {}
        self._documents: Dict[str, Dict[str, Any]] = {}
        self._finished_order: "OrderedDict[str, None]" = OrderedDict()
        self._ticket_for: Dict[str, QueuedTicket] = {}
        self._inflight: Dict[str, QueuedTicket] = {}

        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "deduped": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "cancelled": 0,
            "expired": 0,
            "batches": 0,
            "result_ok": 0,
            "result_failed": 0,
            "result_error": 0,
            "result_timeout": 0,
            "fast_jobs": 0,
            "warm_seeded": 0,
            "warm_imports": 0,
            "warm_exports": 0,
        }
        self.batch_sizes: deque = deque(maxlen=_METRICS_WINDOW)
        self.job_records: deque = deque(maxlen=_METRICS_WINDOW)

        self._dispatcher: Optional[asyncio.Task] = None
        self._engine_thread: Optional[ThreadPoolExecutor] = None
        self._started_at = 0.0
        self._started_monotonic = 0.0

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bring up the dispatcher and the persistent worker pool."""
        if self._dispatcher is not None:
            return
        self._started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.engine.start_persistent()
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-engine"
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-dispatcher"
        )

    async def stop(self) -> None:
        """Finish the in-flight batch, then tear everything down."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._engine_thread is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                self._engine_thread, self.engine.stop_persistent
            )
            self._engine_thread.shutdown(wait=True)
            self._engine_thread = None

    @property
    def uptime_seconds(self) -> float:
        if not self._started_monotonic:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------- api
    def submit(self, submission: JobSubmission) -> JobStatus:
        """Admit one submission; returns its (possibly already final) status.

        Raises :class:`ServeError` when the submission cannot be turned
        into an executable job (unknown board schema, bad weights,
        unregistered solver) — the HTTP layer maps that to a 400.
        """
        return self._admit_submission(submission, self._build_job(submission))

    def submit_many(self, submissions: List[JobSubmission]) -> List[JobStatus]:
        """Admit a batch atomically: validate *every* submission first.

        Either the whole list is admitted or :class:`ServeError` is
        raised before anything is enqueued — a bad entry mid-list must
        not leave earlier entries running as orphans the client never
        got ids for.
        """
        jobs = [self._build_job(submission) for submission in submissions]
        return [
            self._admit_submission(submission, job)
            for submission, job in zip(submissions, jobs)
        ]

    def _admit_submission(
        self, submission: JobSubmission, job: MappingJob
    ) -> JobStatus:
        payload = job.to_payload()
        if payload.get("timeout") is None:
            payload["timeout"] = self.engine.timeout
        key = payload_cache_key(payload)
        job_id = f"j{next(self._ids):06d}-{key[:8]}"
        now = time.time()
        self.counters["submitted"] += 1
        if submission.mode == "fast":
            self.counters["fast_jobs"] += 1

        status = JobStatus(
            job_id=job_id,
            state=STATE_QUEUED,
            label=job.display_label(),
            priority=submission.priority,
            cache_key=key,
            submitted_at=now,
        )

        document, tier = self.store.lookup(key)
        if document is not None:
            # Served straight from the store: the job never touches the
            # queue.  A disk-tier hit may be work another process finished
            # (a batch CLI run, a sibling replica on the shared cache
            # directory) — that is the cross-shard dedupe path.
            if tier == TIER_MEMORY:
                self.counters["memory_hits"] += 1
            else:
                self.counters["disk_hits"] += 1
            status.state = STATE_DONE
            status.cache_hit = True
            status.started_at = now
            status.finished_at = time.time()
            status.result_status = document.get("status", "")
            status.objective = document.get("objective")
            status.gap = _document_gap(document)
            status.fingerprint = document.get("fingerprint")
            status.error = document.get("error", "")
            self._records[job_id] = status
            self._documents[job_id] = document
            self._note_finished(job_id, status, document)
            return status

        ticket = self._inflight.get(key)
        if ticket is not None and not ticket.cancelled:
            # In-flight dedupe: ride the identical job already underway.
            ticket.followers.append(job_id)
            self.counters["deduped"] += 1
            status.deduped = True
            status.state = STATE_RUNNING if ticket.running else STATE_QUEUED
            if ticket.running:
                status.started_at = now
            else:
                # The follower's own serving metadata still counts: a
                # higher priority promotes the shared solve, and its own
                # queue deadline is tracked per follower.
                if submission.priority > ticket.priority and self.queue.reprioritize(
                    ticket.job_id, submission.priority
                ):
                    primary = self._records.get(ticket.job_id)
                    if primary is not None and not primary.terminal:
                        primary.priority = submission.priority
                if submission.deadline_ms is not None:
                    ticket.follower_deadlines[job_id] = (
                        time.monotonic() + submission.deadline_ms / 1000.0
                    )
            self._ticket_for[job_id] = ticket
            self._records[job_id] = status
            return status

        deadline_at = None
        if submission.deadline_ms is not None:
            deadline_at = time.monotonic() + submission.deadline_ms / 1000.0
        # Warm seeding happens strictly *after* the admission key was
        # computed from the unseeded payload: whether a warm seed is
        # available varies per replica and over time, and must never
        # change which submissions dedupe onto each other.  Only exact
        # pipeline jobs participate — a fast-mode solve seeded with an
        # imported incumbent could legitimately return a different
        # (still-certified) mapping, and served fingerprints must stay
        # identical to the direct ``repro batch`` path.
        warm_key = ""
        if self.warm is not None and job.mode == "pipeline":
            warm_key = warm_state_key(payload)
            warm = self.warm.get(warm_key)
            if warm is not None:
                self.counters["warm_seeded"] += 1
                if warm.get("source") != self.instance:
                    self.counters["warm_imports"] += 1
                job = dataclasses.replace(
                    job,
                    chain_context=warm["chain_context"],
                    export_context=True,
                )
            else:
                job = dataclasses.replace(job, export_context=True)
        ticket = QueuedTicket(
            job_id=job_id,
            mapping_job=job,
            cache_key=key,
            priority=submission.priority,
            deadline_at=deadline_at,
            warm_key=warm_key,
        )
        self._inflight[key] = ticket
        self._ticket_for[job_id] = ticket
        self._records[job_id] = status
        self.queue.put(ticket)
        return status

    def status(self, job_id: str) -> Optional[JobStatus]:
        """Current status of a job, or ``None`` for an unknown id."""
        self._sweep_expired()
        return self._records.get(job_id)

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The finished job's result document (``None`` if unavailable)."""
        document = self._documents.get(job_id)
        if document is not None:
            return document
        record = self._records.get(job_id)
        if record is not None and record.cache_key:
            return self.store.get(record.cache_key)
        return None

    def cancel(self, job_id: str) -> Optional[JobStatus]:
        """Cancel a queued job.

        Returns the updated status; ``None`` for an unknown id.  A job
        already running (or finished) is *not* cancelled — the caller
        sees its unchanged, non-cancelled status and can tell from
        ``state``.  Cancelling one deduped follower leaves its siblings
        (and the shared solve) untouched.
        """
        record = self._records.get(job_id)
        if record is None:
            return None
        if record.terminal or record.state == STATE_RUNNING:
            return record
        ticket = self._ticket_for.get(job_id)
        if ticket is None or ticket.running:
            return record
        if ticket.job_id == job_id and not ticket.followers:
            ticket.cancelled = True
            self.queue.cancel(job_id)
            if self._inflight.get(ticket.cache_key) is ticket:
                del self._inflight[ticket.cache_key]
        elif ticket.job_id == job_id:
            # The primary leaves but followers still want the result: the
            # ticket keeps solving, only this record is released.
            pass
        else:
            try:
                ticket.followers.remove(job_id)
            except ValueError:
                pass
            ticket.follower_deadlines.pop(job_id, None)
        self.counters["cancelled"] += 1
        record.state = STATE_CANCELLED
        record.finished_at = time.time()
        self._note_finished(job_id, record, None)
        return record

    def health_report(self) -> HealthReport:
        """Typed liveness/diagnostics report of the ``/healthz`` endpoint."""
        self._sweep_expired()
        sizes = list(self.batch_sizes)
        store_stats = self.store.stats()
        if self.warm is not None:
            store_stats["warm"] = self.warm.stats()
        return HealthReport(
            status="ok",
            role="service",
            uptime_seconds=self.uptime_seconds,
            queue_depth=self.queue.depth,
            inflight=len(self._inflight),
            workers=self.engine.jobs,
            counters=dict(self.counters),
            store=store_stats,
            details={
                "instance": self.instance,
                "mp_context": self.engine.mp_context,
                "max_batch": self.batcher.max_batch,
                "max_wait_ms": self.batcher.max_wait_ms,
                "batches": {
                    "count": self.counters["batches"],
                    "mean_size": (sum(sizes) / len(sizes)) if sizes else None,
                    "max_size": max(sizes) if sizes else None,
                },
                "records": len(self._records),
            },
        )

    def artifact(self) -> Dict[str, Any]:
        """Throughput/latency artifact document (``BENCH_serve.json``)."""
        from ..bench.artifacts import serve_artifact

        return serve_artifact(
            records=list(self.job_records),
            elapsed=self.uptime_seconds,
            jobs=self.engine.jobs,
            max_batch=self.batcher.max_batch,
            max_wait_ms=self.batcher.max_wait_ms,
            counters=dict(self.counters),
            batch_sizes=list(self.batch_sizes),
        )

    # ------------------------------------------------------------- internals
    def _build_job(self, submission: JobSubmission) -> MappingJob:
        try:
            board = board_from_dict(submission.board)
            design = design_from_dict(submission.design)
        except SerializationError as exc:
            raise ServeError(f"bad submission: {exc}") from exc
        try:
            weights = CostWeights(**dict(submission.weights))
        except TypeError as exc:
            raise ServeError(f"bad submission weights: {exc}") from exc
        try:
            resolve_backend(submission.solver)
        except ModelError as exc:
            raise ServeError(f"bad submission solver: {exc}") from exc
        try:
            return MappingJob(
                board=board,
                design=design,
                weights=weights,
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
        except (TypeError, ValueError) as exc:
            raise ServeError(f"bad submission: {exc}") from exc

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            tickets = await self.batcher.collect()
            live = self._admit(tickets)
            if not live:
                continue
            now = time.time()
            for ticket in live:
                ticket.running = True
                for job_id in ticket.job_ids():
                    record = self._records.get(job_id)
                    if record is not None and not record.terminal:
                        record.state = STATE_RUNNING
                        record.started_at = now
            self.counters["batches"] += 1
            self.batch_sizes.append(len(live))
            jobs = [ticket.mapping_job for ticket in live]
            future = loop.run_in_executor(
                self._engine_thread, self.engine.run, jobs
            )
            try:
                results = await asyncio.shield(future)
            except asyncio.CancelledError:
                # Shutdown mid-batch: let the engine finish and record the
                # outcomes so no accepted job is silently dropped — even
                # when the pool died, the jobs must reach a terminal state
                # and stop() must still tear the engine down cleanly.
                try:
                    results = await future
                except Exception as exc:
                    for ticket in live:
                        self._finish_error(ticket, exc)
                else:
                    for ticket, result in zip(live, results):
                        self._finish(ticket, result)
                raise
            except Exception as exc:
                for ticket in live:
                    self._finish_error(ticket, exc)
                continue
            for ticket, result in zip(live, results):
                self._finish(ticket, result)

    def _admit(self, tickets: List[QueuedTicket]) -> List[QueuedTicket]:
        """Filter a popped batch down to tickets that should be solved."""
        live = []
        now = time.monotonic()
        for ticket in tickets:
            if ticket.cancelled:
                # Status bookkeeping already happened at cancel time.  A
                # resubmission of the same job may own the in-flight slot
                # by now — only this ticket's own registration is dropped.
                if self._inflight.get(ticket.cache_key) is ticket:
                    del self._inflight[ticket.cache_key]
                continue
            if self._apply_deadlines(ticket, now):
                continue
            live.append(ticket)
        return live

    def _apply_deadlines(self, ticket: QueuedTicket, now: float) -> bool:
        """Expire the individual jobs on ``ticket`` whose deadlines passed.

        Deadlines are per *job*, not per ticket: the primary's deadline
        expiring must not take down deduped followers that asked to wait
        (and vice versa).  Returns ``True`` when nobody is interested in
        the result any more and the ticket itself was discarded.
        """
        if ticket.running or ticket.cancelled:
            return False
        for job_id, deadline_at in list(ticket.follower_deadlines.items()):
            if now >= deadline_at:
                del ticket.follower_deadlines[job_id]
                if job_id in ticket.followers:
                    ticket.followers.remove(job_id)
                self._expire_record(job_id)
        if ticket.deadline_at is not None and now >= ticket.deadline_at:
            self._expire_record(ticket.job_id)
            # The primary no longer drives the ticket's lifetime; any
            # surviving followers keep the solve alive.
            ticket.deadline_at = None
        for job_id in ticket.job_ids():
            record = self._records.get(job_id)
            if record is not None and not record.terminal:
                return False
        ticket.cancelled = True
        self.queue.cancel(ticket.job_id)
        if self._inflight.get(ticket.cache_key) is ticket:
            del self._inflight[ticket.cache_key]
        return True

    def _expire_record(self, job_id: str) -> None:
        record = self._records.get(job_id)
        if record is None or record.terminal:
            return
        self.counters["expired"] += 1
        record.state = STATE_EXPIRED
        record.finished_at = time.time()
        record.error = "deadline expired before the job was scheduled"
        self._note_finished(job_id, record, None)
        self._ticket_for.pop(job_id, None)

    def _sweep_expired(self) -> None:
        now = time.monotonic()
        for ticket in list(self._inflight.values()):
            self._apply_deadlines(ticket, now)

    def _finish(self, ticket: QueuedTicket, result) -> None:
        document = result.to_dict()
        self.store.put(ticket.cache_key, document)
        if (
            self.warm is not None
            and ticket.warm_key
            and result.status == "ok"
            and isinstance(document.get("chain_context"), dict)
        ):
            try:
                if self.warm.put(ticket.warm_key, document["chain_context"]):
                    self.counters["warm_exports"] += 1
            except OSError:
                pass  # warm sharing is an optimisation, never a failure
        if self._inflight.get(ticket.cache_key) is ticket:
            del self._inflight[ticket.cache_key]
        if result.cache_hit:
            self.counters["disk_hits"] += 1
        self.counters[f"result_{result.status}"] = (
            self.counters.get(f"result_{result.status}", 0) + 1
        )
        now = time.time()
        for job_id in ticket.job_ids():
            record = self._records.get(job_id)
            if record is None or record.terminal:
                continue
            record.state = STATE_DONE
            record.finished_at = now
            record.result_status = result.status
            record.objective = result.objective
            record.gap = _document_gap(document)
            record.fingerprint = result.fingerprint
            record.error = result.error
            record.cache_hit = result.cache_hit
            self._documents[job_id] = document
            self._note_finished(job_id, record, document)
            self._ticket_for.pop(job_id, None)

    def _finish_error(self, ticket: QueuedTicket, exc: Exception) -> None:
        if self._inflight.get(ticket.cache_key) is ticket:
            del self._inflight[ticket.cache_key]
        now = time.time()
        self.counters["result_error"] += 1
        for job_id in ticket.job_ids():
            record = self._records.get(job_id)
            if record is None or record.terminal:
                continue
            record.state = STATE_DONE
            record.finished_at = now
            record.result_status = "error"
            record.error = f"{type(exc).__name__}: {exc}"
            self._note_finished(job_id, record, None)
            self._ticket_for.pop(job_id, None)

    def _note_finished(
        self,
        job_id: str,
        record: JobStatus,
        document: Optional[Dict[str, Any]],
    ) -> None:
        """Record metrics for a terminal job and bound the record tables."""
        if record.state == STATE_DONE:
            self.counters["completed"] += 1
            self.job_records.append(
                {
                    "job_id": job_id,
                    "label": record.label,
                    "status": record.result_status,
                    "latency_ms": record.latency_ms,
                    "solve_ms": (
                        float(document.get("wall_time", 0.0)) * 1000.0
                        if document
                        else 0.0
                    ),
                    "cache_hit": record.cache_hit,
                    "deduped": record.deduped,
                    "fingerprint": record.fingerprint,
                }
            )
        self._finished_order[job_id] = None
        self._finished_order.move_to_end(job_id)
        while len(self._finished_order) > self.record_entries:
            evicted, _ = self._finished_order.popitem(last=False)
            self._records.pop(evicted, None)
            self._documents.pop(evicted, None)
            self._ticket_for.pop(evicted, None)


class ReplicaSupervisor:
    """Spawns and supervises a fleet of ``repro serve`` replica processes.

    Each replica is a full single-process :class:`MappingService` (own
    engine, own event loop) started as ``python -m repro serve --port 0``
    with a shared ``--cache-dir`` — the shared key space that makes
    cross-shard dedupe and warm-state exchange work.  The supervisor
    parses each replica's "serving mapping jobs on http://..." banner to
    learn its ephemeral port, keeps draining its stdout, and can restart
    a replica the router declared dead.
    """

    def __init__(
        self,
        count: int,
        cache_dir: str,
        jobs: int = 1,
        max_batch: int = 4,
        max_wait_ms: float = 25.0,
        time_limit: Optional[float] = None,
        host: str = "127.0.0.1",
        boot_timeout: float = 60.0,
        name_prefix: str = "replica",
        cache_entries: Optional[int] = None,
        memory_entries: int = 256,
        retries: int = 0,
        mp_context: Optional[str] = None,
    ) -> None:
        if count < 1:
            raise ValueError("a fleet needs at least one replica")
        self.count = count
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.time_limit = time_limit
        self.host = host
        self.boot_timeout = boot_timeout
        self.name_prefix = name_prefix
        self.cache_entries = cache_entries
        self.memory_entries = memory_entries
        self.retries = retries
        self.mp_context = mp_context
        self._procs: Dict[str, asyncio.subprocess.Process] = {}
        self._urls: Dict[str, str] = {}
        self._drains: List[asyncio.Task] = []

    def _command(self, name: str) -> List[str]:
        import sys

        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            "0",
            "--cache-dir",
            str(self.cache_dir),
            "--jobs",
            str(self.jobs),
            "--max-batch",
            str(self.max_batch),
            "--max-wait-ms",
            str(self.max_wait_ms),
            "--instance-name",
            name,
            "--memory-entries",
            str(self.memory_entries),
            "--retries",
            str(self.retries),
        ]
        if self.time_limit is not None:
            command += ["--time-limit", str(self.time_limit)]
        if self.cache_entries is not None:
            command += ["--cache-entries", str(self.cache_entries)]
        if self.mp_context is not None:
            command += ["--mp-context", self.mp_context]
        return command

    def _env(self) -> Dict[str, str]:
        """Child environment with the ``repro`` package importable."""
        import os
        import sys
        from pathlib import Path

        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{package_root}{os.pathsep}{existing}"
                if existing
                else package_root
            )
        return env

    async def _spawn(self, name: str) -> str:
        process = await asyncio.create_subprocess_exec(
            *self._command(name),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            env=self._env(),
        )
        url = ""
        deadline = time.monotonic() + self.boot_timeout
        assert process.stdout is not None
        while time.monotonic() < deadline:
            try:
                line = await asyncio.wait_for(
                    process.stdout.readline(),
                    timeout=max(0.1, deadline - time.monotonic()),
                )
            except asyncio.TimeoutError:
                break
            if not line:
                break
            text = line.decode("utf-8", "replace")
            marker = "serving mapping jobs on "
            if marker in text:
                url = text.split(marker, 1)[1].split()[0]
                break
        if not url:
            try:
                process.terminate()
            except ProcessLookupError:
                pass
            await process.wait()
            raise RuntimeError(
                f"replica {name} did not report a serving URL within "
                f"{self.boot_timeout:.0f}s"
            )
        self._procs[name] = process
        self._urls[name] = url
        # Keep the pipe drained so a chatty replica never blocks on a
        # full stdout buffer.
        self._drains.append(
            asyncio.create_task(self._drain(process), name=f"drain-{name}")
        )
        return url

    @staticmethod
    async def _drain(process: asyncio.subprocess.Process) -> None:
        assert process.stdout is not None
        try:
            while await process.stdout.readline():
                pass
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass

    async def start(self) -> List[Any]:
        """Boot the fleet; returns ``[(name, url), ...]``."""
        endpoints = []
        for index in range(1, self.count + 1):
            name = f"{self.name_prefix}-{index}"
            endpoints.append((name, await self._spawn(name)))
        return endpoints

    def alive(self, name: str) -> bool:
        process = self._procs.get(name)
        return process is not None and process.returncode is None

    async def restart(self, name: str) -> str:
        """Restart a dead replica; returns its new URL ('' on failure)."""
        process = self._procs.get(name)
        if process is not None and process.returncode is None:
            try:
                process.terminate()
            except ProcessLookupError:
                pass
            await process.wait()
        try:
            return await self._spawn(name)
        except (RuntimeError, OSError):
            return ""

    async def stop(self) -> None:
        """Terminate every replica and reap the processes."""
        for task in self._drains:
            task.cancel()
        self._drains.clear()
        for process in self._procs.values():
            if process.returncode is None:
                try:
                    process.terminate()
                except ProcessLookupError:
                    pass
        for process in self._procs.values():
            try:
                await asyncio.wait_for(process.wait(), timeout=10.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        self._procs.clear()
        self._urls.clear()
