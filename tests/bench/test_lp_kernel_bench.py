"""The LP kernel micro-benchmark and its ``bench_compare`` contract.

``benchmarks/bench_lp_kernel.py`` and ``scripts/bench_compare.py`` are
top-level scripts, so they are loaded here by file path.  The benchmark
is executed once in ``--quick`` mode (about a second of solver work) and
the resulting document is held to the same schema the CI smoke job
enforces.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(name, relative):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_lp_kernel = _load("bench_lp_kernel", "benchmarks/bench_lp_kernel.py")
bench_compare = _load("bench_compare", "scripts/bench_compare.py")


@pytest.fixture(scope="module")
def quick_payload():
    return bench_lp_kernel.run(quick=True)


class TestQuickRun:
    def test_document_is_a_valid_lp_kernel_artifact(self, quick_payload):
        assert bench_compare.validate(quick_payload) == []
        assert quick_payload["name"] == "lp_kernel"
        json.dumps(quick_payload)  # artifact must be serialisable

    def test_totals_add_up_and_objectives_match(self, quick_payload):
        rows = quick_payload["results"]
        assert quick_payload["num_points"] == len(rows)
        assert quick_payload["total_pivots"] == sum(r["pivots"] for r in rows)
        assert quick_payload["total_refactorizations"] == \
            sum(r["refactorizations"] for r in rows)
        assert quick_payload["all_objectives_match"] is True
        assert all(r["objectives_match"] for r in rows)

    def test_every_kernel_covers_every_family(self, quick_payload):
        by_family = {}
        for row in quick_payload["results"]:
            by_family.setdefault(row["family"], set()).add(row["kernel"])
        # Finite-lb fuzz families run both kernels ...
        assert by_family["feasible"] == {"tableau", "dense"}
        # ... while infinite lower bounds and large sparse rows exclude
        # the tableau (outside its contract / quadratic in m).
        assert "tableau" not in by_family["mixed"]
        sparse = [f for f in by_family if f.startswith("large-sparse-")]
        assert sparse
        for family in sparse:
            assert by_family[family] == {"dense"}

    def test_artifact_round_trips_through_check_mode(
        self, quick_payload, tmp_path, capsys
    ):
        from repro.bench import write_bench_artifact

        path = write_bench_artifact("lp_kernel", quick_payload, tmp_path)
        assert bench_compare.main(["--check", str(path)]) == 0
        assert "well-formed" in capsys.readouterr().out


def _minimal_kernel_doc(total_pivots):
    return {
        "kind": "bench_artifact",
        "artifact_version": 1,
        "name": "lp_kernel",
        "solver": "lp-kernels",
        "num_points": 1,
        "wall_seconds": 0.5,
        "total_pivots": total_pivots,
        "total_refactorizations": 1,
        "all_objectives_match": True,
        "results": [{"label": "feasible/dense", "pivots": total_pivots,
                     "wall_seconds": 0.5}],
    }


class TestBenchCompareLpKernel:
    def test_missing_kernel_totals_are_flagged(self):
        document = _minimal_kernel_doc(10)
        del document["total_pivots"]
        problems = bench_compare.validate(document)
        assert any("total_pivots" in p for p in problems)

    def test_objective_mismatch_is_a_validation_error(self):
        document = _minimal_kernel_doc(10)
        document["all_objectives_match"] = False
        problems = bench_compare.validate(document)
        assert any("disagreed" in p for p in problems)

    def test_fail_over_gates_on_pivots_not_wall(self, capsys):
        baseline = _minimal_kernel_doc(100)
        # Wall time regresses 100x but pivots are stable: must pass.
        stable = _minimal_kernel_doc(101)
        stable["wall_seconds"] = 50.0
        assert bench_compare.compare(baseline, stable, fail_over=20.0) == 0
        capsys.readouterr()
        # Pivots regress beyond the threshold: must fail.
        regressed = _minimal_kernel_doc(130)
        assert bench_compare.compare(baseline, regressed, fail_over=20.0) == 1
        assert "total pivots" in capsys.readouterr().out

    def test_wall_gate_still_applies_to_other_artifacts(self, capsys):
        baseline = _minimal_kernel_doc(100)
        candidate = _minimal_kernel_doc(100)
        for document in (baseline, candidate):
            document["name"] = "table3"
            document.update(total_warm_lp_solves=0, total_basis_reuses=0,
                            total_refactorizations=0)
        candidate["wall_seconds"] = 5.0
        assert bench_compare.compare(baseline, candidate, fail_over=20.0) == 1
        assert "wall time" in capsys.readouterr().out
