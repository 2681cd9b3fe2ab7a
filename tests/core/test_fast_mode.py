"""Contract tests of the mapper's fast mode (``mode="fast"``).

Fast mode promises a *certified* optimality gap: every returned mapping
is feasible (it passes the same validators as an exact run) and its
objective is within ``gap_limit`` of a valid lower bound — whether the
Lagrangian fast lane certified it directly or the gap-limited exact tree
had to serve as the fallback.  These tests pin that contract and the
exact/fast parity across solver backends.
"""

from __future__ import annotations

import pytest

from repro.arch import hierarchical_board
from repro.core import (
    MemoryMapper,
    validate_detailed_mapping,
    validate_global_mapping,
)
from repro.design import fir_filter_design, image_pipeline_design, random_design

from repro.bench.designpoints import default_design_points


def fast_points():
    return default_design_points(full=False)[:4]


class TestFastContract:
    @pytest.mark.parametrize("point", fast_points(), ids=lambda p: p.label())
    def test_fast_mapping_is_feasible_within_gap(self, point):
        design, board = point.build(seed=0)
        result = MemoryMapper(
            board, solver="bnb-pure", mode="fast", gap_limit=0.05
        ).map(design)
        assert validate_global_mapping(design, board, result.global_mapping) == []
        assert validate_detailed_mapping(
            design, board, result.global_mapping, result.detailed_mapping
        ) == []
        stats = result.solve_stats
        assert stats["mode"] == "fast"
        gap = stats.get("gap")
        assert isinstance(gap, float)
        assert 0.0 <= gap <= 0.05 + 1e-9

    @pytest.mark.parametrize("point", fast_points(), ids=lambda p: p.label())
    def test_fast_objective_within_gap_of_exact(self, point):
        design, board = point.build(seed=0)
        exact = MemoryMapper(board, solver="bnb-pure").map(design)
        fast = MemoryMapper(
            board, solver="bnb-pure", mode="fast", gap_limit=0.05
        ).map(design)
        exact_obj = exact.cost.weighted_total
        fast_obj = fast.cost.weighted_total
        assert fast_obj >= exact_obj - 1e-9
        assert fast_obj <= exact_obj * 1.05 + 1e-9

    @pytest.mark.parametrize("solver", ["bnb-pure"])
    def test_parity_across_backends(self, solver):
        # Both contract halves must hold regardless of which exact
        # backend serves as the fast lane's fallback.
        board = hierarchical_board()
        design = image_pipeline_design()
        exact = MemoryMapper(board, solver=solver).map(design)
        fast = MemoryMapper(
            board, solver=solver, mode="fast", gap_limit=0.05
        ).map(design)
        assert validate_global_mapping(design, board, fast.global_mapping) == []
        assert fast.cost.weighted_total <= \
            exact.cost.weighted_total * 1.05 + 1e-9
        assert fast.solve_stats["mode"] == "fast"
        assert exact.solve_stats["mode"] == "exact"

    def test_fast_mode_is_deterministic(self):
        board = hierarchical_board()
        design = random_design(14, seed=3)
        first = MemoryMapper(board, solver="bnb-pure", mode="fast").map(design)
        second = MemoryMapper(board, solver="bnb-pure", mode="fast").map(design)
        assert first.global_mapping.assignment == second.global_mapping.assignment
        assert first.cost.weighted_total == second.cost.weighted_total
        assert first.solve_stats.get("gap") == second.solve_stats.get("gap")

    def test_fast_works_in_clique_capacity_mode(self):
        # The fast lane models the strict budgets, a subset of the clique
        # relaxation, so its certified assignments stay feasible there.
        board = hierarchical_board()
        design = fir_filter_design()
        result = MemoryMapper(
            board, solver="bnb-pure", capacity_mode="clique", mode="fast"
        ).map(design)
        assert validate_global_mapping(design, board, result.global_mapping) == []
        assert result.solve_stats["mode"] == "fast"


class TestFastConfiguration:
    def test_default_gap_limit_is_five_percent(self):
        mapper = MemoryMapper(hierarchical_board(), mode="fast")
        assert mapper.gap_limit == 0.05

    def test_exact_mode_has_no_gap_limit(self):
        mapper = MemoryMapper(hierarchical_board())
        assert mapper.mode == "exact"
        assert mapper.gap_limit is None

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            MemoryMapper(hierarchical_board(), mode="turbo")

    def test_rejects_negative_gap_limit(self):
        with pytest.raises(ValueError):
            MemoryMapper(hierarchical_board(), mode="fast", gap_limit=-0.5)

    def test_heuristic_counters_surface_in_solve_stats(self):
        board = hierarchical_board()
        design = random_design(14, seed=0)
        exact = MemoryMapper(board, solver="bnb-pure").map(design).solve_stats
        # The exact tree takes incumbents only from warm starts, the root
        # greedy and node rounding; all of its LP work is in lp_solves.
        assert exact["heuristic_incumbents"] == 0
        assert exact["lp_solves"] > 0
        for key in ("dive_lp_solves", "dive_pivots", "lns_rounds"):
            assert key not in exact
        fast = MemoryMapper(board, solver="bnb-pure", mode="fast").map(
            fir_filter_design()
        ).solve_stats
        assert fast["backend"] == "fast-heuristic"
        assert fast["heuristic_incumbents"] >= 1
