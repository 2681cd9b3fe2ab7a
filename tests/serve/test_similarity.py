"""Near-duplicate and unrelated designs under warm sharing.

The serve tier keys warm starts on exact identity only: a design that
differs from an exported one in any way misses the warm store and is
solved cold, with no similarity scan, import or reject. These tests pin
that a near-duplicate still serves a fingerprint identical to a direct
run and that an unrelated design falls back cold without a reject.
"""

from __future__ import annotations

import asyncio
import time

from repro.arch import virtex_board
from repro.design import fft_design, fir_filter_design
from repro.engine import MappingJob
from repro.engine.engine import execute_payload
from repro.io.serialize import design_from_dict
from repro.io.serve import JobSubmission
from repro.serve import MappingService


def submission(design=None) -> JobSubmission:
    return JobSubmission.from_objects(
        virtex_board("XCV1000"), design or fir_filter_design(), solver="bnb-pure"
    )


def near_submission() -> JobSubmission:
    """The default submission with its first conflict pair dropped."""
    design = dict(submission().design)
    design["conflicts"] = list(design["conflicts"])[1:]
    return JobSubmission.from_objects(
        virtex_board("XCV1000"), design_from_dict(design), solver="bnb-pure"
    )


async def wait_done(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        status = service.status(job_id)
        if status is not None and status.terminal:
            return status
        assert time.monotonic() < deadline, f"job {job_id} never finished"
        await asyncio.sleep(0.01)


def solve_after_first(second, tmp_path):
    """Serve the default submission, then ``second``, sharing warm state.

    Returns the counters after the first job, the second job's final
    status and the counters after it.
    """

    async def main():
        service = MappingService(
            jobs=1, max_batch=4, max_wait_ms=10.0, cache_dir=tmp_path,
            warm_sharing=True,
        )
        await service.start()
        try:
            first = service.submit(submission())
            await wait_done(service, first.job_id)
            exported = dict(service.counters)
            status = service.submit(second)
            final = await wait_done(service, status.job_id)
            return exported, final, dict(service.counters)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestServiceSimilarityPath:
    def test_near_duplicate_imports_and_stays_fingerprint_identical(
        self, tmp_path
    ):
        # The name predates exact-only warm starts: nothing is imported
        # any more, and the served mapping must still match a direct run.
        near = near_submission()
        exported, final, counters = solve_after_first(near, tmp_path)
        assert exported["warm_exports"] == 1
        assert final.result_status == "ok"
        assert counters["warm_seeded"] == counters["warm_imports"] == 0
        assert "similar_imports" not in counters

        direct = execute_payload(
            MappingJob(
                board=virtex_board("XCV1000"),
                design=design_from_dict(near.design),
                solver="bnb-pure",
            ).to_payload()
        )
        assert final.fingerprint == direct["fingerprint"]

    def test_unrelated_design_falls_back_cold_without_reject(self, tmp_path):
        _, final, counters = solve_after_first(
            submission(design=fft_design()), tmp_path
        )
        assert final.result_status == "ok"
        assert counters["warm_seeded"] == 0
        assert "similar_rejects" not in counters
