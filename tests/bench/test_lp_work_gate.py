"""``bench_compare``'s total-LP-work gate for table3 and heuristics artifacts.

LP work — every LP solve and pivot the solver runs — is deterministic
for a fixed set of design points, so the gate has no tolerance: any
growth over the baseline fails, whatever ``--fail-over`` allows the wall
time.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.bench import SCALED_DESIGN_POINTS, Table3Harness

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "scripts" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

WORK = {
    "total_lp_solves": 57,
    "total_simplex_iterations": 535,
}


def _doc(name, **overrides):
    document = {
        "kind": "bench_artifact",
        "artifact_version": 1,
        "name": name,
        "solver": "bnb-pure",
        "num_points": 2,
        "wall_seconds": 1.0,
        "total_warm_lp_solves": 0,
        "total_basis_reuses": 0,
        "total_refactorizations": 0,
        "gap_limit": 0.05,
        "total_exact_nodes": 10,
        "total_heuristic_incumbents": 1,
        "num_fast_certified": 1,
        "all_gaps_ok": True,
        "results": [{"label": "point1"}, {"label": "point2"}],
        **WORK,
    }
    document.update(overrides)
    return document


@pytest.mark.parametrize("name", ["table3", "heuristics"])
class TestLpWorkGate:
    def test_equal_or_less_work_passes(self, name):
        baseline = _doc(name)
        assert bench_compare.validate(baseline) == []
        assert bench_compare.compare(baseline, _doc(name), fail_over=0) == 0
        leaner = _doc(name, total_lp_solves=50, total_simplex_iterations=500)
        assert bench_compare.compare(baseline, leaner, fail_over=0) == 0

    @pytest.mark.parametrize("key, what", [
        ("total_lp_solves", "LP solves"),
        ("total_simplex_iterations", "pivots"),
    ])
    def test_one_more_unit_of_work_fails(self, name, key, what, capsys):
        baseline = _doc(name)
        heavier = _doc(name, **{key: WORK[key] + 1})
        # Even a generous wall-time allowance does not cover LP work.
        assert bench_compare.compare(baseline, heavier, fail_over=300) == 1
        assert f"total {what}" in capsys.readouterr().out

    def test_different_points_skip_the_gate(self, name, capsys):
        baseline = _doc(name)
        other = _doc(name, total_lp_solves=1000,
                     results=[{"label": "point1"}, {"label": "point3"}])
        assert bench_compare.compare(baseline, other, fail_over=0) == 0
        assert "LP-work gate skipped" in capsys.readouterr().out

    def test_artifacts_must_carry_the_summed_keys(self, name):
        for key in WORK:
            document = _doc(name)
            del document[key]
            problems = bench_compare.validate(document)
            assert any(key in p for p in problems), key


def test_table3_artifact_totals_lp_work():
    harness = Table3Harness(points=SCALED_DESIGN_POINTS[:2], solver="bnb-pure",
                            time_limit=60, run_complete=False)
    rows = harness.run()
    document = harness._artifact(rows, elapsed=1.0)
    assert bench_compare.validate(document) == []
    for key, stat in (("total_lp_solves", "lp_solves"),
                      ("total_simplex_iterations", "simplex_iterations")):
        assert document[key] == sum(row.global_solve_stats[stat] for row in rows)
        assert document[key] > 0
