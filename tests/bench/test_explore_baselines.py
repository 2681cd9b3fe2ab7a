"""The committed ``BENCH_explore_*.json`` baselines must stay live.

A warm-chained exploration of the baseline grid, run in-process today,
must reproduce the committed artifacts' objectives *byte-identically*
(repr-equal floats, not approximately) — warm chains and basis reuse may
only ever change solver effort, never a mapping.  The baselines were
recorded under solver ``auto`` (the pure-Python ``bnb-pure`` tree), which
needs no SciPy, so the comparison runs in every environment.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.explore import DesignSpaceExplorer, ScenarioGrid

ARTIFACT_DIR = Path(__file__).resolve().parents[2] / "bench-artifacts"

#: The grid both committed explore baselines were recorded with (see
#: ``grid`` inside the artifacts and the bench-smoke CI job).
BASELINE_SPECS = [
    "image-pipeline@width=128:512:128",
    "random@structures=12,occupancy=0.5:0.8:0.05",
]


def _baseline_objectives(name: str):
    path = ARTIFACT_DIR / name
    document = json.loads(path.read_text(encoding="utf-8"))
    return {row["label"]: row["objective"] for row in document["results"]}


@pytest.fixture(scope="module")
def warm_run():
    grid = ScenarioGrid.parse(BASELINE_SPECS)
    return DesignSpaceExplorer(grid, warm_chain=True).run()


class TestCommittedExploreBaselines:
    def test_warm_chain_objectives_are_byte_identical(self, warm_run):
        baseline = _baseline_objectives("BENCH_explore_warm.json")
        current = {p.label: p.objective for p in warm_run.points}
        assert set(current) == set(baseline)
        for label, objective in baseline.items():
            # repr-equality: the committed JSON float and today's result
            # must serialise to the same bytes, not merely be close.
            assert repr(current[label]) == repr(objective), label

    def test_cold_objectives_match_the_cold_baseline(self, warm_run):
        baseline = _baseline_objectives("BENCH_explore_cold.json")
        grid = ScenarioGrid.parse(BASELINE_SPECS)
        cold = DesignSpaceExplorer(grid, warm_chain=False).run()
        current = {p.label: p.objective for p in cold.points}
        assert set(current) == set(baseline)
        for label, objective in baseline.items():
            assert repr(current[label]) == repr(objective), label
        # And warm must equal cold point by point (effort-only chains).
        warm_objectives = {p.label: p.objective for p in warm_run.points}
        assert warm_objectives == current
