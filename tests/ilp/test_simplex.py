"""Unit tests for the built-in dense two-phase simplex LP solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Model,
    SimplexOptions,
    highs_available,
    solve_lp_simplex,
    to_standard_form,
)
from repro.ilp.scipy_backend import solve_lp_highs


def lp_of(model: Model):
    return to_standard_form(model)


class TestBasicLPs:
    def test_simple_maximisation_via_min(self):
        # min -3x - 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
        m = Model()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_constraint(x <= 4)
        m.add_constraint(2 * y <= 12)
        m.add_constraint(3 * x + 2 * y <= 18)
        m.set_objective(-3 * x - 5 * y)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(-36.0, abs=1e-6)
        assert result.x[x.index] == pytest.approx(2.0, abs=1e-6)
        assert result.x[y.index] == pytest.approx(6.0, abs=1e-6)

    def test_equality_constraints(self):
        # min x + y  s.t. x + y == 10, x - y == 2
        m = Model()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_constraint(x + y == 10)
        m.add_constraint(x - y == 2)
        m.set_objective(x + 2 * y)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == OPTIMAL
        assert result.x[x.index] == pytest.approx(6.0, abs=1e-6)
        assert result.x[y.index] == pytest.approx(4.0, abs=1e-6)

    def test_variable_upper_bounds_respected(self):
        m = Model()
        x = m.add_continuous("x", ub=3.0)
        m.add_constraint(x <= 100)
        m.set_objective(-x)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == OPTIMAL
        assert result.x[x.index] == pytest.approx(3.0, abs=1e-6)

    def test_shifted_lower_bounds(self):
        m = Model()
        x = m.add_continuous("x", lb=5.0, ub=9.0)
        y = m.add_continuous("y", lb=1.0)
        m.add_constraint(x + y <= 12)
        m.set_objective(x - y)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == OPTIMAL
        assert result.x[x.index] == pytest.approx(5.0, abs=1e-6)
        assert result.x[y.index] == pytest.approx(7.0, abs=1e-6)

    def test_no_constraints_bounded_by_variable_bounds(self):
        m = Model()
        x = m.add_continuous("x", lb=0.0, ub=2.0)
        m.set_objective(-4 * x)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == OPTIMAL
        assert result.x[x.index] == pytest.approx(2.0)

    def test_ge_constraints(self):
        # min 2x + 3y  s.t. x + y >= 4, x >= 1
        m = Model()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_constraint(x + y >= 4)
        m.add_constraint(x >= 1)
        m.set_objective(2 * x + 3 * y)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(8.0, abs=1e-6)


class TestDegenerateAndEdgeCases:
    def test_infeasible_problem_detected(self):
        m = Model()
        x = m.add_continuous("x", ub=1.0)
        m.add_constraint(x >= 3)
        m.set_objective(x)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == INFEASIBLE

    def test_unbounded_problem_detected(self):
        m = Model()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_constraint(x - y <= 1)
        m.set_objective(-x)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == UNBOUNDED

    def test_degenerate_problem_terminates(self):
        # Beale's classic cycling example; the Bland's-rule fallback must
        # terminate at the known optimum of -0.05.
        m = Model()
        x1 = m.add_continuous("x1")
        x2 = m.add_continuous("x2")
        x3 = m.add_continuous("x3")
        x4 = m.add_continuous("x4")
        m.add_constraint(0.25 * x1 - 60 * x2 - 0.04 * x3 + 9 * x4 <= 0)
        m.add_constraint(0.5 * x1 - 90 * x2 - 0.02 * x3 + 3 * x4 <= 0)
        m.add_constraint(x3 <= 1)
        m.set_objective(-0.75 * x1 + 150 * x2 - 0.02 * x3 + 6 * x4)
        result = solve_lp_simplex(lp_of(m), SimplexOptions(stall_iterations=5))
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(-0.05, abs=1e-6)

    def test_redundant_equalities_handled(self):
        m = Model()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_constraint(x + y == 4)
        m.add_constraint(2 * x + 2 * y == 8)  # redundant
        m.set_objective(x)
        result = solve_lp_simplex(lp_of(m))
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(0.0, abs=1e-6)


@pytest.mark.skipif(not highs_available(), reason="SciPy/HiGHS not installed")
class TestAgreementWithHighs:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_lps_match_highs(self, seed):
        rng = np.random.default_rng(seed)
        n_vars, n_cons = 6, 4
        m = Model(f"rand{seed}")
        xs = [m.add_continuous(f"x{i}", lb=0.0, ub=float(rng.integers(2, 8)))
              for i in range(n_vars)]
        for row in range(n_cons):
            coeffs = rng.integers(-3, 4, size=n_vars)
            expr = sum(int(c) * x for c, x in zip(coeffs, xs))
            m.add_constraint(expr <= float(rng.integers(3, 15)))
        m.set_objective(sum(float(rng.integers(-5, 6)) * x for x in xs))
        form = lp_of(m)
        ours = solve_lp_simplex(form)
        reference = solve_lp_highs(form)
        assert ours.status == reference.status
        if ours.status == OPTIMAL:
            assert ours.objective == pytest.approx(reference.objective, abs=1e-6)
