"""Unit tests of the open-loop traffic schedule (no server needed)."""

from __future__ import annotations

import pytest

from repro.arch import virtex_board
from repro.design import fir_filter_design, matrix_multiply_design
from repro.bench.loadgen import LoadgenConfig, build_schedule
from repro.io.serve import JobSubmission


def templates():
    board = virtex_board("XCV1000")
    return [
        JobSubmission.from_objects(board, fir_filter_design(),
                                   solver="bnb-pure", label="fir"),
        JobSubmission.from_objects(board, matrix_multiply_design(),
                                   solver="bnb-pure", label="mm"),
    ]


def config(**overrides) -> LoadgenConfig:
    defaults = dict(
        url="http://127.0.0.1:0",
        templates=templates(),
        duration_s=20.0,
        rate=10.0,
        seed=7,
    )
    defaults.update(overrides)
    return LoadgenConfig(**defaults)


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        first = build_schedule(config())
        second = build_schedule(config())
        assert first == second

    def test_different_seed_different_arrival_times(self):
        first = build_schedule(config(seed=1))
        second = build_schedule(config(seed=2))
        assert [a.at for a in first] != [a.at for a in second]

    def test_arrivals_are_ordered_and_inside_the_window(self):
        schedule = build_schedule(config())
        times = [a.at for a in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < 20.0 for t in times)

    def test_uniform_arrivals_are_evenly_spaced(self):
        schedule = build_schedule(config(arrival="uniform", rate=4.0))
        gaps = {
            round(b.at - a.at, 9)
            for a, b in zip(schedule, schedule[1:])
        }
        assert gaps == {round(1.0 / 4.0, 9)}

    def test_open_loop_rate_is_roughly_respected(self):
        # Open-loop means the schedule length tracks rate * duration, not
        # anything the server does.
        schedule = build_schedule(config(rate=10.0, duration_s=20.0))
        assert 120 <= len(schedule) <= 280  # ~200 expected


class TestTrafficMix:
    def test_duplicates_resend_an_earlier_submission_verbatim(self):
        schedule = build_schedule(config(duplicate_ratio=0.5))
        by_index = {a.index: a for a in schedule}
        duplicates = [a for a in schedule if a.duplicate_of is not None]
        assert duplicates, "a 0.5 duplicate ratio must produce duplicates"
        for twin in duplicates:
            original = by_index[twin.duplicate_of]
            assert twin.duplicate_of < twin.index
            assert twin.submission == original.submission

    def test_zero_duplicate_ratio_produces_only_fresh_arrivals(self):
        schedule = build_schedule(config(duplicate_ratio=0.0))
        assert all(a.duplicate_of is None for a in schedule)
        labels = [a.submission.label for a in schedule]
        assert len(set(labels)) == len(labels)  # per-arrival labels

    def test_fast_and_low_priority_mixes_apply(self):
        schedule = build_schedule(config(
            duplicate_ratio=0.0, fast_ratio=0.4,
            low_priority_ratio=0.4, low_priority=-2,
        ))
        fast = [a for a in schedule if a.submission.mode == "fast"]
        low = [a for a in schedule if a.submission.priority == -2]
        assert fast and low
        assert len(fast) < len(schedule)
        assert len(low) < len(schedule)

    def test_mix_ratios_default_off(self):
        schedule = build_schedule(config(duplicate_ratio=0.0))
        assert all(a.submission.mode == "pipeline" for a in schedule)
        assert all(a.submission.priority == 0 for a in schedule)


class TestBurstyArrivals:
    def test_bursty_concentrates_arrivals_in_on_windows(self):
        schedule = build_schedule(config(
            arrival="bursty", rate=8.0, burst_factor=4.0, burst_period_s=2.0,
        ))
        on = [a for a in schedule if (a.at % 2.0) < 1.0]
        off = [a for a in schedule if (a.at % 2.0) >= 1.0]
        assert len(on) > 0
        # The off half of every period is silent by construction.
        assert len(off) == 0


class TestValidation:
    def test_empty_templates_are_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(config(templates=[]))

    def test_unknown_arrival_process_is_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(config(arrival="fractal"))
