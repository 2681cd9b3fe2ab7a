"""Differential LP fuzzing suite: three kernels, one answer.

A seeded generator (shared with the kernel micro-benchmark via
:mod:`repro.ilp.instances`) builds random :class:`StandardForm`
instances — mixed ``==``/``<=`` rows, free/fixed/bounded variables,
degenerate, infeasible, unbounded and large sparse cases — and
cross-checks the revised simplex against the legacy dense tableau and
(when SciPy is present) HiGHS.  Statuses must agree exactly; objectives
to 1e-6.  On top of the kernel cross-check, the revised kernel's two
entering rules — Dantzig pricing, and Bland's rule armed from the first
pivot — must agree with each other: the canonicalization step pins the
final vertex, so even the *solution vectors* are compared.  The corpus is a fixed seed list so the suite is
deterministic and runs as part of tier-1; when a fuzz failure is found
in the wild, append its seed to the matching corpus tuple below so it
becomes a permanent regression case (see CONTRIBUTING.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import (
    RevisedOptions,
    RevisedSimplex,
    SimplexOptions,
    highs_available,
    solve_lp_revised,
    solve_lp_simplex,
)
from repro.ilp.scipy_backend import solve_lp_highs
from repro.ilp.instances import (
    degenerate_lp,
    feasible_box_lp,
    infeasible_lp,
    large_sparse_lp,
    mixed_variable_lp,
    unbounded_lp,
)

# --------------------------------------------------------------------------
# Seed corpus.  Every seed is one deterministic LP; append the seed of any
# newly-found fuzz failure to keep it as a regression case forever.
# --------------------------------------------------------------------------
FEASIBLE_SEEDS = tuple(range(1, 21)) + (911, 4242)
MIXED_VAR_SEEDS = tuple(range(100, 116))
INFEASIBLE_SEEDS = tuple(range(200, 210))
UNBOUNDED_SEEDS = tuple(range(300, 308))
DEGENERATE_SEEDS = tuple(range(400, 406))
LARGE_SPARSE_SEEDS = (500, 501, 502)

#: the revised kernel's entering rules: Dantzig pricing (the default,
#: Bland's rule only after a stall) and Bland's rule from the first pivot.
PRICING_RULES = {
    "dantzig": RevisedOptions(),
    "bland": RevisedOptions(stall_iterations=0),
}


# --------------------------------------------------------------------------
# Differential oracles
# --------------------------------------------------------------------------

def _assert_agree(form, expected_status=None, check_tableau=True):
    """Solve with every available kernel and demand one answer."""
    results = {"revised": solve_lp_revised(form, RevisedOptions())}
    if check_tableau:
        results["simplex"] = solve_lp_simplex(form, SimplexOptions())
    if highs_available():
        results["highs"] = solve_lp_highs(form)
    statuses = {name: r.status for name, r in results.items()}
    assert len(set(statuses.values())) == 1, f"status mismatch: {statuses}"
    status = results["revised"].status
    if expected_status is not None:
        assert status == expected_status, statuses
    if status == "optimal":
        objectives = {name: r.objective for name, r in results.items()}
        reference = objectives["revised"]
        for name, value in objectives.items():
            assert value == pytest.approx(reference, abs=1e-6), objectives
    return results["revised"]


def _assert_pricing_rules_agree(form):
    """Bland's rule must reproduce the Dantzig reference.

    The post-optimality canonicalization step pins the optimal vertex,
    so on optimal instances the final vertex — not just the objective —
    is rule-independent.
    """
    reference = solve_lp_revised(form, PRICING_RULES["dantzig"])
    bland = solve_lp_revised(form, PRICING_RULES["bland"])
    assert bland.status == reference.status
    if reference.status == "optimal":
        assert bland.objective == pytest.approx(reference.objective, abs=1e-6)
        np.testing.assert_allclose(bland.x, reference.x, atol=1e-6)
    return reference


class TestFuzzFeasible:
    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS)
    def test_three_kernels_agree(self, seed):
        _assert_agree(feasible_box_lp(seed), expected_status="optimal")

    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS[:10])
    def test_pricing_rules_reach_the_same_vertex(self, seed):
        _assert_pricing_rules_agree(feasible_box_lp(seed))


class TestFuzzMixedVariables:
    @pytest.mark.parametrize("seed", MIXED_VAR_SEEDS)
    def test_revised_matches_highs_on_free_and_fixed_vars(self, seed):
        # Infinite lower bounds are outside the tableau kernel's contract.
        _assert_agree(mixed_variable_lp(seed), check_tableau=False)

    @pytest.mark.parametrize("seed", MIXED_VAR_SEEDS[:6])
    def test_pricing_rules_agree_on_mixed_variables(self, seed):
        _assert_pricing_rules_agree(mixed_variable_lp(seed))


class TestFuzzInfeasible:
    @pytest.mark.parametrize("seed", INFEASIBLE_SEEDS)
    def test_all_kernels_prove_infeasibility(self, seed):
        _assert_agree(infeasible_lp(seed), expected_status="infeasible")

    @pytest.mark.parametrize("seed", INFEASIBLE_SEEDS[:3])
    def test_pricing_rules_agree_on_infeasibility(self, seed):
        _assert_pricing_rules_agree(infeasible_lp(seed))


class TestFuzzUnbounded:
    @pytest.mark.parametrize("seed", UNBOUNDED_SEEDS)
    def test_all_kernels_detect_the_ray(self, seed):
        _assert_agree(unbounded_lp(seed), expected_status="unbounded")

    @pytest.mark.parametrize("seed", UNBOUNDED_SEEDS[:3])
    def test_pricing_rules_agree_on_unboundedness(self, seed):
        _assert_pricing_rules_agree(unbounded_lp(seed))


class TestFuzzDegenerate:
    @pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
    def test_degenerate_instances_agree(self, seed):
        _assert_agree(degenerate_lp(seed), expected_status="optimal")

    @pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
    def test_pricing_rules_survive_degeneracy(self, seed):
        _assert_pricing_rules_agree(degenerate_lp(seed))

    @pytest.mark.parametrize("seed", DEGENERATE_SEEDS[:3])
    def test_bland_mode_from_the_first_pivot(self, seed):
        """Anti-cycling pricing must reach the same optimum."""
        form = degenerate_lp(seed)
        aggressive = solve_lp_revised(
            form, RevisedOptions(stall_iterations=0)
        )
        reference = solve_lp_revised(form, RevisedOptions())
        assert aggressive.status == reference.status == "optimal"
        assert aggressive.objective == pytest.approx(reference.objective, abs=1e-9)


class TestFuzzLargeSparse:
    """The scale end: m, n ≥ 100 at <5% density.

    The dense tableau is excluded (it is quadratic in the row count and
    contributes nothing at this scale); the revised kernel under both
    entering rules and HiGHS must all agree.
    """

    @pytest.mark.parametrize("seed", LARGE_SPARSE_SEEDS)
    def test_revised_matches_highs_at_scale(self, seed):
        form = large_sparse_lp(seed, m=120, n=150)
        dense = solve_lp_revised(form)
        assert dense.status == "optimal"
        # Long pivot runs cross several refactorization intervals.
        assert dense.refactor_triggers.get("interval", 0) >= 1
        if highs_available():
            highs = solve_lp_highs(form)
            assert highs.status == "optimal"
            assert highs.objective == pytest.approx(dense.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", LARGE_SPARSE_SEEDS[:2])
    def test_pricing_rules_agree_at_scale(self, seed):
        form = large_sparse_lp(seed, m=100, n=120)
        _assert_pricing_rules_agree(form)


class TestFuzzWarmEqualsCold:
    """A reused basis may change effort, never the answer."""

    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS[:8])
    def test_warm_resolve_after_bound_tightening(self, seed):
        form = feasible_box_lp(seed)
        engine = RevisedSimplex(form)
        first = engine.solve(form.lb, form.ub)
        if first.status != "optimal":
            pytest.skip("generator produced a non-optimal base case")
        rng = np.random.RandomState(seed + 77)
        lb2, ub2 = form.lb.copy(), form.ub.copy()
        for j in rng.choice(form.num_variables,
                            size=max(1, form.num_variables // 3),
                            replace=False):
            ub2[j] = lb2[j] if rng.rand() < 0.5 else max(
                lb2[j], float(first.x[j]) * 0.5
            )
        warm = engine.solve(lb2, ub2, basis=first.basis)
        cold = engine.solve(lb2, ub2)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            # Canonicalization makes the vertex itself path-independent.
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    @pytest.mark.parametrize("pricing", list(PRICING_RULES))
    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS[:3])
    def test_warm_equals_cold_for_every_pricing_rule(self, seed, pricing):
        form = feasible_box_lp(seed)
        engine = RevisedSimplex(form, PRICING_RULES[pricing])
        first = engine.solve(form.lb, form.ub)
        if first.status != "optimal":
            pytest.skip("generator produced a non-optimal base case")
        ub2 = form.ub.copy()
        ub2[0] = max(form.lb[0], float(first.x[0]) * 0.5)
        warm = engine.solve(form.lb, ub2, basis=first.basis)
        cold = engine.solve(form.lb, ub2)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS[:6])
    def test_dive_chain_warm_equals_cold(self, seed):
        """The diving heuristics' solve pattern: a chain of re-solves,
        each fixing one more variable to a rounded value and warm-starting
        from the previous step's basis.  Every link of the chain must
        agree with a cold solve of the same bounds — a dive may never be
        cheaper by being *wrong*."""
        form = feasible_box_lp(seed)
        engine = RevisedSimplex(form)
        current = engine.solve(form.lb, form.ub)
        if current.status != "optimal":
            pytest.skip("generator produced a non-optimal base case")
        lb, ub = form.lb.copy(), form.ub.copy()
        rng = np.random.RandomState(seed + 31)
        for _ in range(4):
            open_vars = np.where(ub - lb > 1e-9)[0]
            if open_vars.size == 0:
                break
            j = int(open_vars[rng.randint(open_vars.size)])
            lb[j] = ub[j] = float(np.clip(np.round(current.x[j]), lb[j], ub[j]))
            warm = engine.solve(lb, ub, basis=current.basis)
            cold = engine.solve(lb, ub)
            assert warm.status == cold.status
            if warm.status != "optimal":
                break  # the dive hit a dead end; both kernels agree it did
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)
            current = warm

    @pytest.mark.parametrize("seed", MIXED_VAR_SEEDS[:4])
    def test_dive_chain_on_mixed_variables(self, seed):
        """Same chained-fixing pattern over free/fixed variables."""
        form = mixed_variable_lp(seed)
        engine = RevisedSimplex(form)
        current = engine.solve(form.lb, form.ub)
        if current.status != "optimal":
            pytest.skip("generator produced a non-optimal base case")
        lb, ub = form.lb.copy(), form.ub.copy()
        rng = np.random.RandomState(seed + 53)
        finite = np.where(np.isfinite(lb) & np.isfinite(ub) & (ub - lb > 1e-9))[0]
        for j in rng.choice(finite, size=min(3, finite.size), replace=False):
            j = int(j)
            lb[j] = ub[j] = float(np.clip(np.round(current.x[j]), lb[j], ub[j]))
            warm = engine.solve(lb, ub, basis=current.basis)
            cold = engine.solve(lb, ub)
            assert warm.status == cold.status
            if warm.status != "optimal":
                break
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)
            current = warm

    @pytest.mark.parametrize("seed", LARGE_SPARSE_SEEDS[:1])
    def test_warm_equals_cold_on_large_sparse(self, seed):
        form = large_sparse_lp(seed, m=100, n=120)
        engine = RevisedSimplex(form)
        first = engine.solve(form.lb, form.ub)
        assert first.status == "optimal"
        ub2 = form.ub.copy()
        rng = np.random.RandomState(seed + 13)
        for j in rng.choice(form.num_variables, size=10, replace=False):
            ub2[j] = max(form.lb[j], float(first.x[j]) * 0.5)
        warm = engine.solve(form.lb, ub2, basis=first.basis)
        cold = engine.solve(form.lb, ub2)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)
