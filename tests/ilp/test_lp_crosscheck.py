"""Property-style cross-checks: the pure simplex must agree with HiGHS.

Randomized small LPs are generated so that they are feasible and bounded
by construction (box bounds plus inequality rows satisfied by a known
interior point), then solved with both LP kernels.  The objectives must
agree to 1e-6 — vertex solutions may differ under degeneracy, objectives
may not.  A dedicated degenerate instance drives the simplex through its
Bland's-rule anti-cycling path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import (
    Model,
    SimplexOptions,
    highs_available,
    quicksum,
    solve_lp_simplex,
    to_standard_form,
)
from repro.ilp.scipy_backend import solve_lp_highs

pytestmark = pytest.mark.skipif(
    not highs_available(), reason="SciPy/HiGHS is unavailable for cross-checking"
)


def random_bounded_lp(rng: np.random.RandomState, num_vars: int, num_rows: int):
    """Build a random LP that is feasible and bounded by construction."""
    model = Model(f"random-lp-{num_vars}x{num_rows}")
    upper = rng.uniform(1.0, 10.0, size=num_vars)
    x = [model.add_continuous(f"x{i}", lb=0.0, ub=float(upper[i]))
         for i in range(num_vars)]
    interior = rng.uniform(0.1, 0.9) * upper
    for row in range(num_rows):
        coeffs = rng.uniform(-2.0, 2.0, size=num_vars)
        slack = rng.uniform(0.5, 3.0)
        rhs = float(coeffs @ interior + slack)
        model.add_constraint(
            quicksum(float(c) * v for c, v in zip(coeffs, x)) <= rhs,
            name=f"row{row}",
        )
    objective = rng.uniform(-5.0, 5.0, size=num_vars)
    model.set_objective(quicksum(float(c) * v for c, v in zip(objective, x)))
    return model


class TestSimplexAgreesWithHighs:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps_reach_the_same_objective(self, seed):
        rng = np.random.RandomState(1000 + seed)
        num_vars = int(rng.randint(2, 8))
        num_rows = int(rng.randint(1, 10))
        form = to_standard_form(random_bounded_lp(rng, num_vars, num_rows))

        ours = solve_lp_simplex(form, SimplexOptions())
        highs = solve_lp_highs(form)
        assert ours.status == "optimal"
        assert highs.status == "optimal"
        assert ours.objective == pytest.approx(highs.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_equality_constrained_lps_agree(self, seed):
        rng = np.random.RandomState(2000 + seed)
        model = Model("eq-lp")
        n = 5
        x = [model.add_continuous(f"x{i}", lb=0.0, ub=4.0) for i in range(n)]
        # One balancing equality through a known feasible point, plus caps.
        weights = rng.uniform(0.5, 1.5, size=n)
        point = rng.uniform(0.5, 2.0, size=n)
        model.add_constraint(
            quicksum(float(w) * v for w, v in zip(weights, x))
            == float(weights @ point),
            name="balance",
        )
        model.add_constraint(quicksum(x) <= float(point.sum() + 2.0), name="cap")
        cost = rng.uniform(-3.0, 3.0, size=n)
        model.set_objective(quicksum(float(c) * v for c, v in zip(cost, x)))
        form = to_standard_form(model)

        ours = solve_lp_simplex(form, SimplexOptions())
        highs = solve_lp_highs(form)
        assert ours.status == highs.status == "optimal"
        assert ours.objective == pytest.approx(highs.objective, abs=1e-6)


class TestDegenerateInstances:
    def degenerate_lp(self):
        """A transportation-style LP with heavy primal degeneracy.

        Multiple redundant rows pass through the same optimal vertex, so
        Dantzig pricing performs degenerate (zero-improvement) pivots.
        """
        model = Model("degenerate")
        x = [model.add_continuous(f"x{i}", lb=0.0, ub=2.0) for i in range(4)]
        model.add_constraint(x[0] + x[1] <= 2.0, name="r0")
        model.add_constraint(x[1] + x[2] <= 2.0, name="r1")
        model.add_constraint(x[2] + x[3] <= 2.0, name="r2")
        model.add_constraint(x[0] + x[3] <= 2.0, name="r3")
        model.add_constraint(x[0] + x[1] + x[2] + x[3] <= 4.0, name="redundant")
        model.add_constraint(x[0] + x[2] <= 2.0, name="also-redundant")
        model.set_objective(-(x[0] + x[1] + x[2] + x[3]))
        return model

    def test_bland_rule_path_agrees_with_highs(self):
        form = to_standard_form(self.degenerate_lp())
        # stall_iterations=0 forces Bland's anti-cycling rule from the very
        # first pivot, exercising the termination-guarantee path directly.
        ours = solve_lp_simplex(form, SimplexOptions(stall_iterations=0))
        highs = solve_lp_highs(form)
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(highs.objective, abs=1e-6)
        assert ours.objective == pytest.approx(-4.0, abs=1e-6)

    def test_default_pricing_also_solves_the_degenerate_lp(self):
        form = to_standard_form(self.degenerate_lp())
        ours = solve_lp_simplex(form, SimplexOptions())
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(-4.0, abs=1e-6)
