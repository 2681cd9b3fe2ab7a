"""Integration tests of the transport-free mapping service core."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.arch import virtex_board
from repro.design import (
    fft_design,
    fir_filter_design,
    image_pipeline_design,
    matrix_multiply_design,
)
from repro.engine import MappingEngine, MappingJob
from repro.io.serve import JobSubmission
from repro.serve import MappingService, ReplicaSupervisor, ServeError


def submission(design=None, board=None, **overrides) -> JobSubmission:
    board = board or virtex_board("XCV1000")
    design = design or fir_filter_design()
    overrides.setdefault("solver", "bnb-pure")
    return JobSubmission.from_objects(board, design, **overrides)


async def wait_done(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        status = service.status(job_id)
        if status is not None and status.terminal:
            return status
        assert time.monotonic() < deadline, f"job {job_id} never finished"
        await asyncio.sleep(0.01)


def with_service(coro_fn, **config):
    config.setdefault("jobs", 1)
    config.setdefault("max_batch", 4)
    config.setdefault("max_wait_ms", 10.0)

    async def main():
        service = MappingService(**config)
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestEndToEnd:
    def test_served_mapping_is_fingerprint_identical_to_engine_run(self):
        board, design = virtex_board("XCV1000"), fir_filter_design()

        async def scenario(service):
            status = service.submit(submission(design, board))
            final = await wait_done(service, status.job_id)
            assert final.state == "done" and final.result_status == "ok"
            return final.fingerprint, service.result(status.job_id)

        fingerprint, document = with_service(scenario)
        direct = MappingEngine(jobs=1).run(
            [MappingJob(board=board, design=design, solver="bnb-pure")]
        )[0]
        assert fingerprint == direct.fingerprint
        assert document["fingerprint"] == direct.fingerprint
        assert document["result"]["kind"] == "mapping_result"

    def test_concurrent_burst_is_batched_deduped_and_correct(self):
        # The ISSUE acceptance demo: >= 8 concurrent submissions coalesce
        # into micro-batches, duplicates dedupe to one solve, and every
        # answer is fingerprint-identical to the equivalent batch run.
        board = virtex_board("XCV1000")
        designs = [
            fir_filter_design(),
            matrix_multiply_design(),
            image_pipeline_design(),
            fir_filter_design(),  # duplicate of [0]
        ]
        copies = 2  # 4 designs x 2 copies = 8 concurrent submissions

        async def scenario(service):
            statuses = [
                service.submit(submission(design, board))
                for design in designs
                for _ in range(copies)
            ]
            finals = [await wait_done(service, s.job_id) for s in statuses]
            return finals, service.health_report().to_wire()

        finals, health = with_service(scenario, max_batch=4, max_wait_ms=50.0)
        assert all(f.state == "done" and f.result_status == "ok" for f in finals)

        # 8 submissions, only 3 unique jobs: at most 3 solves happened.
        assert health["counters"]["submitted"] == 8
        unique_keys = {f.cache_key for f in finals}
        assert len(unique_keys) == 3
        assert health["counters"]["result_ok"] <= len(unique_keys)
        assert (
            health["counters"]["deduped"] + health["counters"]["memory_hits"]
            >= 8 - len(unique_keys)
        )
        # Micro-batching coalesced the burst into fewer engine dispatches
        # than submissions.
        assert health["counters"]["batches"] < 8

        direct = MappingEngine(jobs=1).run([
            MappingJob(board=board, design=design, solver="bnb-pure")
            for design in designs
        ])
        expected = [r.fingerprint for r in direct for _ in range(copies)]
        assert [f.fingerprint for f in finals] == expected

    def test_repeat_submission_hits_the_memory_store(self):
        async def scenario(service):
            first = service.submit(submission())
            await wait_done(service, first.job_id)
            again = service.submit(submission())
            assert again.state == "done"
            assert again.cache_hit
            assert again.fingerprint == service.status(first.job_id).fingerprint
            return service.health_report().to_wire()

        health = with_service(scenario)
        assert health["counters"]["memory_hits"] == 1

    def test_disk_cache_survives_service_restarts(self, tmp_path):
        async def solve(service):
            status = service.submit(submission())
            return await wait_done(service, status.job_id)

        cold = with_service(solve, cache_dir=tmp_path)
        assert not cold.cache_hit
        warm = with_service(solve, cache_dir=tmp_path)
        assert warm.cache_hit
        assert warm.fingerprint == cold.fingerprint

    def test_failed_mapping_reports_failed_result(self):
        from repro.arch import flex10k_board
        from repro.design import fft_design

        async def scenario(service):
            status = service.submit(
                submission(fft_design(), flex10k_board("EPF10K100"))
            )
            return await wait_done(service, status.job_id)

        final = with_service(scenario)
        assert final.state == "done"
        assert final.result_status == "failed"
        assert final.error


class TestAdmissionErrors:
    def test_unknown_solver_is_refused(self):
        service = MappingService()
        with pytest.raises(ServeError):
            service.submit(submission(solver="definitely-not-registered"))

    def test_bad_board_document_is_refused(self):
        service = MappingService()
        bad = JobSubmission(board={"kind": "board"}, design={"kind": "design"})
        with pytest.raises(ServeError):
            service.submit(bad)

    def test_bad_weights_are_refused(self):
        service = MappingService()
        with pytest.raises(ServeError):
            service.submit(submission(weights={"latency": 1.0, "bogus": 2.0}))


class TestLifecycleStates:
    def test_queued_job_can_be_cancelled(self):
        # No dispatcher: the job stays queued and cancellation is
        # deterministic.
        service = MappingService()
        status = service.submit(submission())
        cancelled = service.cancel(status.job_id)
        assert cancelled.state == "cancelled"
        assert service.status(status.job_id).state == "cancelled"
        assert service.health_report().to_wire()["counters"]["cancelled"] == 1

    def test_cancel_unknown_job_returns_none(self):
        assert MappingService().cancel("ghost") is None

    def test_finished_job_cannot_be_cancelled(self):
        async def scenario(service):
            status = service.submit(submission())
            await wait_done(service, status.job_id)
            after = service.cancel(status.job_id)
            assert after.state == "done"

        with_service(scenario)

    def test_cancelling_a_follower_keeps_the_primary_solving(self):
        service = MappingService()
        primary = service.submit(submission())
        follower = service.submit(submission())
        assert follower.deduped
        service.cancel(follower.job_id)
        assert service.status(follower.job_id).state == "cancelled"
        assert service.status(primary.job_id).state == "queued"

    def test_cancel_then_resubmit_keeps_single_solve_dedupe(self):
        # Regression: a cancelled ticket draining through the batcher must
        # not evict its *successor* from the in-flight table, or a third
        # identical submission would trigger a second concurrent solve.
        async def scenario(service):
            first = service.submit(submission())
            service.cancel(first.job_id)
            second = service.submit(submission())
            assert not second.deduped  # the cancelled ticket released the slot
            third = service.submit(submission())
            assert third.deduped or third.cache_hit
            finals = [
                await wait_done(service, s.job_id) for s in (second, third)
            ]
            assert all(f.result_status == "ok" for f in finals)
            return service.health_report().to_wire()

        health = with_service(scenario, max_wait_ms=50.0)
        assert health["counters"]["result_ok"] == 1  # exactly one solve

    def test_submit_many_is_atomic_on_a_bad_entry(self):
        service = MappingService()
        batch = [submission(), submission(solver="definitely-not-registered")]
        with pytest.raises(ServeError):
            service.submit_many(batch)
        # Nothing from the batch was admitted.
        assert service.health_report().to_wire()["counters"]["submitted"] == 0
        assert service.queue.depth == 0

    def test_follower_priority_promotes_the_shared_ticket(self):
        service = MappingService()
        primary = service.submit(submission(priority=0))
        rival = service.submit(submission(matrix_multiply_design(), priority=3))
        follower = service.submit(submission(priority=9))
        assert follower.deduped
        ticket = service.queue.find(primary.job_id)
        assert ticket.priority == 9
        assert service.status(primary.job_id).priority == 9
        assert service.queue.find(rival.job_id).priority == 3

    def test_follower_deadline_expires_only_the_follower(self):
        # Both submitted before start(): at dispatch time the follower's
        # zero deadline has passed, the primary's (absent) has not.
        async def scenario(service):
            primary = service.submit(submission())
            follower = service.submit(submission(deadline_ms=0.0))
            assert follower.deduped
            await service.start()
            final = await wait_done(service, primary.job_id)
            assert final.result_status == "ok"
            follower_final = await wait_done(service, follower.job_id)
            assert follower_final.state == "expired"

        async def main():
            service = MappingService(jobs=1, max_batch=4, max_wait_ms=10.0)
            try:
                await scenario(service)
            finally:
                await service.stop()

        asyncio.run(main())

    def test_disk_entries_bounds_the_on_disk_cache(self, tmp_path):
        async def scenario(service):
            for design in (
                fir_filter_design(),
                matrix_multiply_design(),
                image_pipeline_design(),
            ):
                status = service.submit(submission(design))
                await wait_done(service, status.job_id)
            return len(service.engine.cache)

        entries = with_service(scenario, cache_dir=tmp_path, disk_entries=2)
        assert entries <= 2

    def test_primary_deadline_does_not_expire_patient_followers(self):
        # Regression: the primary's queue deadline used to take the whole
        # ticket down; a deduped follower that asked to wait forever must
        # still get its solve.
        async def scenario(service):
            primary = service.submit(submission(deadline_ms=0.0))
            follower = service.submit(submission())
            assert follower.deduped
            await service.start()
            follower_final = await wait_done(service, follower.job_id)
            assert follower_final.state == "done"
            assert follower_final.result_status == "ok"
            primary_final = service.status(primary.job_id)
            assert primary_final.state == "expired"

        async def main():
            service = MappingService(jobs=1, max_batch=4, max_wait_ms=10.0)
            try:
                await scenario(service)
            finally:
                await service.stop()

        asyncio.run(main())

    def test_zero_deadline_expires_before_solving(self):
        service = MappingService()
        status = service.submit(submission(deadline_ms=0.0))
        time.sleep(0.005)
        seen = service.status(status.job_id)
        assert seen.state == "expired"
        assert service.health_report().to_wire()["counters"]["expired"] == 1

    def test_unknown_job_status_is_none(self):
        assert MappingService().status("ghost") is None


class TestHealthAndArtifact:
    def test_health_reports_queue_and_worker_shape(self):
        async def scenario(service):
            return service.health_report().to_wire()

        health = with_service(scenario, max_batch=7, max_wait_ms=3.0)
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert health["details"]["max_batch"] == 7
        assert health["details"]["max_wait_ms"] == 3.0
        assert health["queue_depth"] == 0
        assert health["uptime_seconds"] >= 0

    def test_artifact_summarises_served_jobs(self):
        async def scenario(service):
            first = service.submit(submission())
            await wait_done(service, first.job_id)
            second = service.submit(submission())  # memory hit
            await wait_done(service, second.job_id)
            return service.artifact()

        artifact = with_service(scenario)
        assert artifact["kind"] == "bench_artifact"
        assert artifact["name"] == "serve"
        assert artifact["num_jobs"] == 2
        assert artifact["latency_ms"]["p50"] is not None
        assert artifact["latency_ms"]["p99"] >= artifact["latency_ms"]["p50"]
        assert artifact["throughput_jobs_per_s"] > 0
        assert artifact["counters"]["submitted"] == 2

    def test_record_tables_stay_bounded(self):
        async def scenario(service):
            first = service.submit(submission())
            await wait_done(service, first.job_id)
            # Flood with memory hits; old finished records must be evicted.
            ids = [service.submit(submission()).job_id for _ in range(8)]
            assert service.status(ids[-1]) is not None
            return service

        service = with_service(scenario, record_entries=4)
        assert len(service._records) <= 4


class TestWarmSharing:
    def test_exact_identity_under_a_new_cache_key_is_seeded(self, tmp_path):
        # The same design under another time budget is a different cache
        # key but the same warm identity: it is seeded from the exported
        # state. Near-duplicate and unrelated misses are pinned in
        # test_similarity.py.
        async def scenario(service):
            first = service.submit(submission())
            await wait_done(service, first.job_id)
            exported = dict(service.counters)
            second = service.submit(submission(timeout=120.0))
            final = await wait_done(service, second.job_id)
            return exported, final, dict(service.counters), service.health_report()

        exported, final, last, health = with_service(
            scenario, cache_dir=tmp_path, warm_sharing=True
        )
        assert exported["warm_exports"] == 1
        assert exported["warm_seeded"] == 0
        assert final.result_status == "ok"
        assert last["warm_seeded"] == 1
        assert set(health.store["warm"]) == {
            "exports", "reuses", "imports", "evictions",
        }

    def test_disk_entries_bounds_the_warm_directory(self, tmp_path):
        async def scenario(service):
            for design in (
                fir_filter_design(),
                matrix_multiply_design(),
                image_pipeline_design(),
                fft_design(),
            ):
                status = service.submit(submission(design))
                await wait_done(service, status.job_id)
            return len(service.warm), service.counters["warm_exports"]

        entries, exports = with_service(
            scenario, cache_dir=tmp_path, disk_entries=2, warm_sharing=True
        )
        assert exports == 4
        assert entries <= 2


class TestReplicaSupervisor:
    def test_command_forwards_every_replica_flag(self, tmp_path):
        supervisor = ReplicaSupervisor(
            count=2,
            cache_dir=str(tmp_path),
            time_limit=5.0,
            cache_entries=50,
            memory_entries=64,
            retries=2,
            mp_context="spawn",
        )
        command = supervisor._command("replica-0")
        flags = dict(zip(command, command[1:]))
        assert flags["--instance-name"] == "replica-0"
        assert flags["--cache-dir"] == str(tmp_path)
        assert flags["--time-limit"] == "5.0"
        assert flags["--cache-entries"] == "50"
        assert flags["--memory-entries"] == "64"
        assert flags["--retries"] == "2"
        assert flags["--mp-context"] == "spawn"

        command = ReplicaSupervisor(
            count=2, cache_dir=str(tmp_path)
        )._command("replica-0")
        assert "--cache-entries" not in command
        assert "--mp-context" not in command
        assert "--time-limit" not in command
