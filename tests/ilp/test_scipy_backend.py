"""Unit tests for the SciPy/HiGHS LP and MILP wrappers."""

from __future__ import annotations

import pytest

from repro.ilp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Model,
    ScipyMilpSolver,
    highs_available,
    quicksum,
    to_standard_form,
)
from repro.ilp.scipy_backend import solve_lp_highs

pytestmark = pytest.mark.skipif(not highs_available(), reason="SciPy/HiGHS not installed")


class TestLpWrapper:
    def test_optimal_lp(self):
        m = Model()
        x = m.add_continuous("x", ub=4)
        y = m.add_continuous("y", ub=6)
        m.add_constraint(3 * x + 2 * y <= 18)
        m.set_objective(-3 * x - 5 * y)
        result = solve_lp_highs(to_standard_form(m))
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(-36.0)

    def test_infeasible_lp(self):
        m = Model()
        x = m.add_continuous("x", ub=1)
        m.add_constraint(x >= 2)
        m.set_objective(x)
        assert solve_lp_highs(to_standard_form(m)).status == INFEASIBLE

    def test_unbounded_lp(self):
        m = Model()
        x = m.add_continuous("x")
        m.set_objective(-x)
        assert solve_lp_highs(to_standard_form(m)).status == UNBOUNDED


class TestMilpWrapper:
    def test_optimal_milp(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(4)]
        m.add_constraint(quicksum(xs) <= 2)
        m.set_objective(quicksum(-(i + 1) * x for i, x in enumerate(xs)))
        solution = ScipyMilpSolver().solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-7.0)
        assert solution.rounded(xs[3]) == 1 and solution.rounded(xs[2]) == 1

    def test_infeasible_milp(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constraint(x >= 2)
        m.set_objective(x)
        assert ScipyMilpSolver().solve(m).status == INFEASIBLE

    def test_maximisation_objective_restored(self):
        m = Model(sense="max")
        x = m.add_binary("x")
        m.set_objective(4 * x)
        solution = ScipyMilpSolver().solve(m)
        assert solution.objective == pytest.approx(4.0)

    def test_stats_record_backend_and_time(self):
        m = Model()
        x = m.add_binary("x")
        m.set_objective(x)
        solution = ScipyMilpSolver().solve(m)
        assert solution.stats.backend == "scipy-milp"
        assert solution.stats.wall_time >= 0.0
