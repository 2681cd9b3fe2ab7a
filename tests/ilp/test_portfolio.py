"""The gap contract, tree determinism, and the primal heuristics kept
outside the tree.

Three promises are pinned here:

* **Gap contract** — solving with ``gap_limit=g`` returns a feasible
  solution whose objective is within ``g`` of the reported best bound
  (and therefore of the true optimum), for every seeded instance.
* **Determinism** — the same model solved twice gives identical values
  and identical work counters; the LNS schedule is seeded, so the same
  seed reproduces the same search.
* **Conservativeness** — the dives, RINS and LNS of
  :mod:`repro.ilp.diving` and :mod:`repro.ilp.lns`, called directly on
  the relaxation, return model-feasible points that never beat the proved
  optimum, and LNS never returns a point worse than the incumbent it was
  given.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ilp import (
    DIVE_STRATEGIES,
    FEASIBLE,
    OPTIMAL,
    BranchAndBoundSolver,
    LnsOptions,
    Model,
    dive,
    lns_search,
    quicksum,
    rins_dive,
)
from repro.ilp.heuristics import sos_greedy_assignment
from repro.ilp.lns import certified_gap
from repro.ilp.revised_simplex import RevisedSimplex
from repro.ilp.standard_form import to_standard_form


#: Total capacity of a sized model over its total item size.
SIZED_SLACK = 1.1


def random_assignment_model(
    seed: int,
    n_items: int = 9,
    n_bins: int = 4,
    sign: float = 1.0,
    sized: bool = False,
) -> Model:
    """Seeded min-cost assignment instance with SOS rows and capacities.

    Unit item sizes make the capacity rows a transportation polytope, so
    the root relaxation is integral; ``sized=True`` draws sizes 1-3 and
    spreads 10% more capacity than the items need over the bins, which
    gives fractional relaxations to branch, dive and repair on.
    ``sign=-1`` negates every cost (the max-cost model).
    """
    rng = np.random.default_rng(seed)
    cost = rng.integers(1, 25, size=(n_items, n_bins))
    capacity = rng.integers(2, n_items // 2 + 2, size=n_bins)
    while int(capacity.sum()) < n_items:
        capacity[int(rng.integers(n_bins))] += 1
    size = np.ones(n_items, dtype=int)
    if sized:
        size = rng.integers(1, 4, size=n_items)
        share = capacity / capacity.sum()
        capacity = np.ceil(share * size.sum() * SIZED_SLACK).astype(int)

    m = Model(f"assign-{seed}")
    z = {}
    for i in range(n_items):
        row = [m.add_binary(f"z[{i},{j}]") for j in range(n_bins)]
        z[i] = row
        m.add_constraint(quicksum(row) == 1)
        m.add_sos1(row)
    for j in range(n_bins):
        m.add_constraint(
            quicksum(int(size[i]) * z[i][j] for i in range(n_items))
            <= int(capacity[j])
        )
    m.set_objective(
        quicksum(
            sign * float(cost[i][j]) * z[i][j]
            for i in range(n_items)
            for j in range(n_bins)
        )
    )
    return m


SEEDS = tuple(range(10))
#: Dives (of 40 over SEEDS) that must step through a fractional relaxation
#: to a point; 25 do, the rest start integral or dead-end.
STEPPED_DIVES = 20


class Relaxation:
    """A seeded model's root relaxation on the warm revised kernel."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.model = random_assignment_model(seed, sized=True)
        self.form = to_standard_form(self.model)
        self.groups = [
            np.asarray(group.members, dtype=int) for group in self.model.sos1_groups
        ]
        engine = RevisedSimplex(self.form)
        self.solve_lp = lambda lb, ub, basis: engine.solve(lb, ub, basis=basis)
        root = self.solve_lp(self.form.lb, self.form.ub, None)
        assert root.status == OPTIMAL
        self.x = root.x
        self.basis = root.basis
        self.bound = root.objective + self.form.objective_offset
        self.greedy = sos_greedy_assignment(self.model, self.form)

    def optimum(self):
        """The tree's proved optimum of the same model."""
        solution = BranchAndBoundSolver().solve(
            random_assignment_model(self.seed, sized=True)
        )
        assert solution.is_optimal
        return solution

    def objective(self, x: np.ndarray) -> float:
        return float(self.form.c @ x) + self.form.objective_offset

    def dives(self):
        """Every dive strategy plus RINS from the greedy incumbent."""
        lb, ub = self.form.lb, self.form.ub
        runs = [
            dive(self.form, self.groups, self.solve_lp, lb, ub, self.x,
                 self.basis, strategy=strategy, reference=self.greedy)
            for strategy in DIVE_STRATEGIES
        ]
        runs.append(rins_dive(self.form, self.groups, self.solve_lp, lb, ub,
                              self.x, self.greedy, self.basis))
        return runs

    def lns(self, incumbent: np.ndarray, seed: int = 0, **kwargs):
        return lns_search(
            self.form, self.groups, self.solve_lp, self.form.lb, self.form.ub,
            incumbent, self.bound, LnsOptions(seed=seed), basis0=self.basis,
            **kwargs,
        )


def weak_incumbent(relax: Relaxation) -> np.ndarray:
    """The costliest feasible assignment: a start that leaves LNS work."""
    worst = BranchAndBoundSolver().solve(
        random_assignment_model(relax.seed, sign=-1.0, sized=True)
    )
    assert worst.is_optimal
    return np.asarray(worst.values, dtype=float)


class TestGapContract:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_solution_is_feasible_within_gap(self, seed):
        m = random_assignment_model(seed)
        solution = BranchAndBoundSolver(gap_limit=0.1).solve(m)
        assert solution.status in (OPTIMAL, FEASIBLE)
        assert m.is_feasible(np.asarray(solution.values, dtype=float), tol=1e-6)
        bound = solution.stats.best_bound
        assert math.isfinite(bound)
        assert certified_gap(solution.objective, bound) <= 0.1 + 1e-9
        assert solution.objective <= bound * 1.1 + 1e-9

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_fast_objective_within_gap_of_true_optimum(self, seed):
        m = random_assignment_model(seed)
        fast = BranchAndBoundSolver(gap_limit=0.1).solve(m)
        exact = BranchAndBoundSolver().solve(random_assignment_model(seed))
        assert exact.is_optimal
        # The reported bound lower-bounds the optimum, so the contract
        # transfers: fast objective <= optimum * (1 + gap).
        assert fast.objective <= exact.objective * 1.1 + 1e-9
        assert fast.objective >= exact.objective - 1e-9

    def test_gap_zero_matches_exact_optimum(self):
        m = random_assignment_model(3)
        fast = BranchAndBoundSolver(gap_limit=0.0).solve(m)
        exact = BranchAndBoundSolver().solve(random_assignment_model(3))
        assert fast.objective == pytest.approx(exact.objective, abs=1e-9)


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_same_model_reproduces_the_tree_solve(self, seed):
        first, second = (
            BranchAndBoundSolver().solve(random_assignment_model(seed, sized=True))
            for _ in range(2)
        )
        assert first.is_optimal
        assert np.array_equal(first.values, second.values)
        for counter in ("nodes_explored", "nodes_pruned", "lp_solves",
                        "simplex_iterations", "incumbent_updates",
                        "warm_lp_solves", "refactorizations"):
            assert getattr(first.stats, counter) == \
                getattr(second.stats, counter), counter

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_same_heuristic_seed_reproduces_the_solve(self, seed):
        first, second = Relaxation(seed), Relaxation(seed)
        for a, b in zip(first.dives(), second.dives()):
            assert a.source == b.source
            assert (a.x is None) == (b.x is None)
            if a.x is not None:
                assert np.array_equal(a.x, b.x)
            assert (a.objective, a.lp_solves, a.pivots) == \
                (b.objective, b.lp_solves, b.pivots)
        runs = [r.lns(weak_incumbent(r), seed=7) for r in (first, second)]
        assert np.array_equal(runs[0].x, runs[1].x)
        for field in ("objective", "rounds", "improvements", "lp_solves", "pivots"):
            assert getattr(runs[0], field) == getattr(runs[1], field), field

    def test_different_heuristic_seeds_keep_the_optimum(self):
        relax = Relaxation(4)
        optimum = relax.optimum()
        objectives = set()
        for seed in (0, 1, 2):
            result = relax.lns(np.asarray(optimum.values, dtype=float), seed=seed)
            assert result.improvements == 0
            objectives.add(round(result.objective, 9))
        assert objectives == {round(optimum.objective, 9)}


class TestConservativeness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_portfolio_never_changes_the_proved_optimum(self, seed):
        relax = Relaxation(seed)
        optimum = relax.optimum()
        assert relax.bound <= optimum.objective + 1e-9
        for run in relax.dives():
            if run.x is None:
                continue
            assert relax.model.is_feasible(run.x), run.source
            assert run.objective == pytest.approx(relax.objective(run.x))
            assert run.objective >= optimum.objective - 1e-9, run.source
        start = weak_incumbent(relax)
        result = relax.lns(start, accept=lambda x, _obj: relax.model.is_feasible(x))
        assert relax.model.is_feasible(result.x)
        assert optimum.objective - 1e-9 <= result.objective <= relax.objective(start)
        assert result.gap == certified_gap(result.objective, relax.bound)

    def test_the_heuristics_do_real_work_on_the_seeded_models(self):
        # The checks above must not pass vacuously: dives that step through
        # fractional relaxations to a point, and LNS rounds that improve.
        stepped = improved = 0
        for seed in SEEDS:
            relax = Relaxation(seed)
            stepped += sum(
                run.x is not None and run.lp_solves > 0 for run in relax.dives()
            )
            improved += relax.lns(weak_incumbent(relax)).improvements
        assert stepped >= STEPPED_DIVES
        assert improved >= len(SEEDS)

    def test_lns_keeps_the_incumbent_when_every_repair_is_rejected(self):
        relax = Relaxation(2)
        start = weak_incumbent(relax)
        result = relax.lns(start, accept=lambda _x, _obj: False)
        assert result.improvements == 0
        assert np.array_equal(result.x, start)
        assert result.objective == relax.objective(start)


def test_the_tree_never_calls_the_dives(monkeypatch):
    from repro.ilp import branch_bound

    def refuse(*_args, **_kwargs):
        raise AssertionError("the tree called a dive or LNS")

    for name in ("dive", "rins_dive", "lns_search"):
        monkeypatch.setattr(branch_bound, name, refuse)
    for seed in SEEDS:
        solution = BranchAndBoundSolver().solve(
            random_assignment_model(seed, sized=True)
        )
        assert solution.is_optimal
