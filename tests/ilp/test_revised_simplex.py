"""Degeneracy, refactorization-drift and basis-state regressions.

The revised kernel inherits the tableau's termination guarantee (Dantzig
pricing with a Bland's-rule switch after a stall) and adds two things
that need their own pins: the periodically refactorized basis inverse
must not drift over long pivot sequences, and the exported
:class:`BasisState` must round-trip through plain dictionaries so it can
cross process boundaries with a chained :class:`SolveContext`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import (
    BasisState,
    Model,
    RevisedOptions,
    RevisedSimplex,
    highs_available,
    quicksum,
    solve_lp_revised,
    to_standard_form,
)
from repro.ilp.scipy_backend import solve_lp_highs


def degenerate_transportation_lp():
    """The tableau suite's Bland's-rule case, ported to the revised kernel.

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
    return to_standard_form(model)


def stalling_lp():
    """A degenerate assignment-style LP that stalls Dantzig pricing.

    The equality row pins the vertex while the overlapping ``<=`` rows
    keep offering zero-step pivots, so with ``stall_iterations=0`` the
    kernel must take its anti-cycling switch to terminate.
    """
    model = Model("stalling")
    y = [model.add_continuous(f"y{i}", lb=0.0, ub=1.0) for i in range(5)]
    model.add_constraint(quicksum(y) == 1.0, name="sum")
    for i in range(4):
        model.add_constraint(y[i] + y[i + 1] <= 1.0, name=f"pair{i}")
    model.add_constraint(y[0] + y[2] + y[4] <= 1.0, name="odd")
    model.set_objective(-quicksum(y))
    return to_standard_form(model)


class TestDegeneracy:
    def test_bland_rule_path_reaches_the_optimum(self):
        form = degenerate_transportation_lp()
        # stall_iterations=0 arms the anti-cycling switch from the first
        # non-improving pivot, exercising the termination guarantee.
        result = solve_lp_revised(form, RevisedOptions(stall_iterations=0))
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-4.0, abs=1e-6)
        if highs_available():
            assert result.objective == pytest.approx(
                solve_lp_highs(form).objective, abs=1e-6
            )

    def test_default_pricing_also_solves_the_degenerate_lp(self):
        result = solve_lp_revised(degenerate_transportation_lp())
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-4.0, abs=1e-6)

    def test_stalling_lp_forces_the_anti_cycling_switch(self):
        form = stalling_lp()
        engine = RevisedSimplex(form, RevisedOptions(stall_iterations=0))
        result = engine.solve(form.lb, form.ub)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-1.0, abs=1e-6)
        # The kernel really went through its Bland's-rule switch.
        assert engine.bland_switches >= 1

    def test_patient_settings_do_not_switch(self):
        form = stalling_lp()
        engine = RevisedSimplex(form, RevisedOptions(stall_iterations=200))
        result = engine.solve(form.lb, form.ub)
        assert result.status == "optimal"
        assert engine.bland_switches == 0


class TestRefactorizationDrift:
    def _long_pivot_lp(self, seed=7, n=24, rows=18):
        rng = np.random.RandomState(seed)
        model = Model("long-pivots")
        upper = rng.uniform(2.0, 9.0, size=n)
        x = [model.add_continuous(f"x{i}", lb=0.0, ub=float(upper[i]))
             for i in range(n)]
        interior = rng.uniform(0.2, 0.8) * upper
        for row in range(rows):
            coeffs = rng.uniform(-1.5, 1.5, size=n)
            model.add_constraint(
                quicksum(float(c) * v for c, v in zip(coeffs, x))
                <= float(coeffs @ interior + rng.uniform(0.5, 2.0)),
                name=f"row{row}",
            )
        cost = rng.uniform(-4.0, 4.0, size=n)
        model.set_objective(quicksum(float(c) * v for c, v in zip(cost, x)))
        return to_standard_form(model)

    def test_residual_stays_below_tolerance_over_a_long_pivot_sequence(self):
        form = self._long_pivot_lp()
        # A tiny interval forces many refactorizations over the sequence.
        engine = RevisedSimplex(form, RevisedOptions(refactor_interval=3))
        result = engine.solve(form.lb, form.ub)
        assert result.status == "optimal"
        assert result.iterations >= 10  # the sequence is genuinely long
        assert result.refactorizations >= result.iterations // 3
        # ‖B·B⁻¹ − I‖ of the final factorization: refactorization keeps
        # the inverse honest instead of letting rank-1 updates drift.
        assert engine.factor_residual() < 1e-8

    def test_drift_matches_the_never_refactorize_objective(self):
        form = self._long_pivot_lp(seed=11)
        frequent = solve_lp_revised(form, RevisedOptions(refactor_interval=2))
        lazy = solve_lp_revised(form, RevisedOptions(refactor_interval=10**6))
        assert frequent.status == lazy.status == "optimal"
        assert frequent.objective == pytest.approx(lazy.objective, abs=1e-7)


class TestEdgeCases:
    def test_unconstrained_model_minimises_on_the_box(self):
        model = Model("box-only")
        x = model.add_continuous("x", lb=1.0, ub=4.0)
        y = model.add_continuous("y", lb=-2.0, ub=5.0)
        model.set_objective(x - y)
        result = solve_lp_revised(to_standard_form(model))
        assert result.status == "optimal"
        assert result.objective == pytest.approx(1.0 - 5.0)

    def test_unconstrained_zero_cost_respects_a_negative_box(self):
        """Review regression: zero-cost var with lb=-inf, ub<0 must clamp."""
        model = Model("neg-ub")
        x = model.add_continuous("x", lb=float("-inf"), ub=-5.0)
        model.set_objective(0.0 * x)
        result = solve_lp_revised(to_standard_form(model))
        assert result.status == "optimal"
        assert result.x[0] <= -5.0 + 1e-9

    def test_unconstrained_unbounded_direction(self):
        model = Model("box-ray")
        x = model.add_continuous("x", lb=0.0)
        model.set_objective(-x)
        result = solve_lp_revised(to_standard_form(model))
        assert result.status == "unbounded"

    def test_crossed_bounds_are_infeasible(self):
        model = Model("crossed")
        x = model.add_continuous("x", lb=0.0, ub=1.0)
        model.add_constraint(x <= 1.0)
        model.set_objective(x)
        form = to_standard_form(model)
        lb = form.lb.copy()
        lb[0] = 2.0  # a branching decision crossed the bounds
        engine = RevisedSimplex(form)
        assert engine.solve(lb, form.ub).status == "infeasible"

    def test_engine_matches_only_bound_sharing_forms(self):
        form = degenerate_transportation_lp()
        engine = RevisedSimplex(form)
        sibling = form.with_bounds(form.lb.copy(), form.ub.copy())
        assert engine.matches(sibling)  # matrices shared via with_bounds
        other = degenerate_transportation_lp()
        assert not engine.matches(other)  # rebuilt matrices, new objects

    def test_iteration_limit_reports_error(self):
        form = TestRefactorizationDrift()._long_pivot_lp(seed=3)
        result = solve_lp_revised(form, RevisedOptions(max_iterations=2))
        assert result.status == "error"


class TestBasisState:
    def test_dict_round_trip(self):
        form = degenerate_transportation_lp()
        result = solve_lp_revised(form)
        state = result.basis
        assert state is not None
        clone = BasisState.from_dict(state.as_dict())
        assert np.array_equal(clone.basis, state.basis)
        assert np.array_equal(clone.status, state.status)

    def test_mismatched_basis_silently_cold_starts(self):
        form = degenerate_transportation_lp()
        engine = RevisedSimplex(form)
        alien = BasisState(
            basis=np.arange(2, dtype=np.int64),
            status=np.zeros(3, dtype=np.int8),
        )
        result = engine.solve(form.lb, form.ub, basis=alien)
        assert result.status == "optimal"
        assert result.basis_reused is False
        assert result.warm is False

    def test_reused_basis_is_never_mutated(self):
        form = degenerate_transportation_lp()
        engine = RevisedSimplex(form)
        first = engine.solve(form.lb, form.ub)
        snapshot = first.basis.copy()
        ub2 = form.ub.copy()
        ub2[0] = 0.0
        second = engine.solve(form.lb, ub2, basis=first.basis)
        assert second.status == "optimal"
        # The supplied state must be untouched — siblings share it.
        assert np.array_equal(first.basis.basis, snapshot.basis)
        assert np.array_equal(first.basis.status, snapshot.status)

    def test_warm_resolve_reports_reuse(self):
        form = degenerate_transportation_lp()
        engine = RevisedSimplex(form)
        first = engine.solve(form.lb, form.ub)
        ub2 = form.ub.copy()
        ub2[1] = 0.0
        warm = engine.solve(form.lb, ub2, basis=first.basis)
        assert warm.status == "optimal"
        assert warm.basis_reused is True
        assert warm.warm is True
        cold = engine.solve(form.lb, ub2)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-7)
