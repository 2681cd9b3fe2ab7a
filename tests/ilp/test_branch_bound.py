"""Unit tests for the branch-and-bound MILP solver (the CPLEX stand-in)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ilp import (
    INFEASIBLE,
    NODE_LIMIT,
    OPTIMAL,
    TIMEOUT,
    UNBOUNDED,
    BranchAndBoundSolver,
    Model,
    ModelError,
    RevisedOptions,
    ScipyMilpSolver,
    create_solver,
    highs_available,
    quicksum,
    resolve_backend,
)
from repro.ilp.branch_bound import apply_objective_cutoff, structural_floor
from repro.ilp.heuristics import SosLayout
from repro.ilp.standard_form import StandardForm


def knapsack_model(values, weights, capacity):
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(len(values))]
    m.add_constraint(quicksum(w * x for w, x in zip(weights, xs)) <= capacity)
    m.set_objective(quicksum(-v * x for v, x in zip(values, xs)))
    return m, xs


def assignment_model(cost, capacity, sos=True):
    """Min-cost assignment of items to bins with per-bin item capacity.

    ``sos`` declares each item's row as an SOS-1 group (what steers the
    tree to SOS branching); without it the tree branches on variables.
    """
    m = Model("assign")
    n_items, n_bins = len(cost), len(cost[0])
    z = {}
    for i in range(n_items):
        row = [m.add_binary(f"z[{i},{j}]") for j in range(n_bins)]
        z[i] = row
        m.add_constraint(quicksum(row) == 1)
        if sos:
            m.add_sos1(row)
    for j in range(n_bins):
        m.add_constraint(quicksum(z[i][j] for i in range(n_items)) <= capacity[j])
    m.set_objective(
        quicksum(cost[i][j] * z[i][j] for i in range(n_items) for j in range(n_bins))
    )
    return m, z


# --------------------------------------------------------------------------
# Reference oracles: the per-group loops the tree ran before the flat
# SosLayout.  ``groups`` is a list of member-index arrays.


def structural_floor_loop(groups, form, lb, ub):
    """``(floor, per-group minima)``; ``(inf, None)`` for an emptied group."""
    c = form.c
    in_group = np.zeros(c.size, dtype=bool)
    for members in groups:
        in_group[members] = True
    base = float(np.where(c >= 0, c * lb, c * ub)[~in_group].sum())
    minima = []
    for members in groups:
        selectable = members[ub[members] > 0.5]
        if selectable.size == 0:
            return math.inf, None
        forced = selectable[lb[selectable] > 0.5]
        minima.append(float(c[forced].sum()) if forced.size
                      else float(c[selectable].min()))
        base += minima[-1]
    return base + form.objective_offset, minima


def objective_cutoff_loop(groups, form, cutoff, lb, ub, tol, counts):
    """The filter's loop; its floor adds the group minima one at a time,
    in group order, exactly as the structural floor does."""
    c = form.c
    in_group = np.zeros(c.size, dtype=bool)
    for members in groups:
        in_group[members] = True
    free_integers = np.where(form.integrality & ~in_group)[0]
    base = float(np.where(c >= 0, c * lb, c * ub)[~in_group].sum())
    minima = []
    for members in groups:
        selectable = members[ub[members] > 0.5]
        if selectable.size == 0:
            return False, lb, ub
        forced = selectable[lb[selectable] > 0.5]
        minima.append(float(c[forced].sum()) if forced.size
                      else float(c[selectable].min()))
        base += minima[-1]
    base += form.objective_offset
    if not math.isfinite(base):
        return True, lb, ub
    if base > cutoff + 1e-12:
        counts["objective_cutoff_prunes"] = counts.get("objective_cutoff_prunes", 0) + 1
        return False, lb, ub
    slack = cutoff - base
    new_lb = new_ub = None
    for members, group_min in zip(groups, minima):
        open_members = members[(ub[members] > 0.5) & (lb[members] < 0.5)]
        too_dear = open_members[c[open_members] - group_min > slack + 1e-9]
        if too_dear.size:
            if new_ub is None:
                new_lb, new_ub = lb.copy(), ub.copy()
            new_ub[too_dear] = 0.0
            counts["objective_cutoff_fixings"] = (
                counts.get("objective_cutoff_fixings", 0) + int(too_dear.size)
            )
    for j in free_integers:
        width = ub[j] - lb[j]
        if width <= tol or abs(c[j]) * width <= slack + 1e-9:
            continue
        span = math.floor(slack / abs(c[j]) + tol)
        if new_ub is None:
            new_lb, new_ub = lb.copy(), ub.copy()
        if c[j] >= 0:
            new_ub[j] = min(new_ub[j], lb[j] + span)
        else:
            new_lb[j] = max(new_lb[j], ub[j] - span)
        if new_ub[j] < new_lb[j] - tol:
            return False, lb, ub
    if new_ub is None:
        return True, lb, ub
    return True, new_lb, new_ub


def select_sos_group_loop(groups, x, lb, ub, tol):
    best_group = None
    best_score = tol
    for members in groups:
        if np.all(ub[members] - lb[members] < tol):
            continue
        values = x[members]
        score = float(np.minimum(values, 1.0 - values).sum())
        if score > best_score:
            best_score = score
            best_group = (tuple(members.tolist()), values)
    return best_group


# Few distinct values, so ties in costs, LP values and scores are common.
COSTS = st.sampled_from([-2.5, -1.0, -0.1, 0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 1.0, 7.0])
VALUES = st.sampled_from([0.0, 1e-7, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9, 1.0])
# A member's box: open, emptied by ``ub`` (forbidden) or forced by ``lb``.
MEMBER_BOX = st.sampled_from([(0.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 1.0)])


@st.composite
def group_boxes(draw):
    """Disjoint groups of up to seven members (the bank-type rows of the
    mapping models are that small), free integers and continuous columns,
    in a random box, with an LP point and an offset for the cutoff."""
    sizes = draw(st.lists(st.integers(1, 7), max_size=5))
    free = draw(st.integers(0, 3))
    continuous = draw(st.integers(1, 2))
    n = sum(sizes) + free + continuous
    order = draw(st.permutations(range(n)))
    groups, at = [], 0
    for size in sizes:
        groups.append(np.array(order[at:at + size], dtype=np.int64))
        at += size
    integers = list(order[at:at + free])
    lb, ub = np.zeros(n), np.ones(n)
    for members in groups:
        for j in members:
            lb[j], ub[j] = draw(MEMBER_BOX)
    for j in integers:
        lb[j] = draw(st.integers(-3, 1))
        ub[j] = lb[j] + draw(st.integers(0, 6))
    for j in order[at + free:]:
        lb[j], ub[j] = draw(st.sampled_from([(-1.0, 2.0), (0.0, 0.5), (1.0, 1.0)]))
    integrality = np.zeros(n, dtype=bool)
    integrality[[j for members in groups for j in members] + integers] = True
    form = StandardForm(
        c=np.array([draw(COSTS) for _ in range(n)]),
        A_ub=np.zeros((0, n)), b_ub=np.zeros(0),
        A_eq=np.zeros((0, n)), b_eq=np.zeros(0),
        lb=lb, ub=ub, integrality=integrality,
        objective_offset=draw(st.sampled_from([0.0, 0.7, -1.3])),
    )
    x = np.array([draw(VALUES) for _ in range(n)])
    # The cutoff sits ``shift`` above the floor: a fixed offset, or one on
    # either side of a tolerance edge of the filter — a cost difference
    # between two columns (a member's excess over its group minimum) or a
    # multiple of one cost (a free integer's span).
    c = form.c
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    edge = draw(st.sampled_from([-5e-10, 0.0, 5e-10]))
    shift = draw(st.one_of(
        st.sampled_from([-1.0, 0.0, 1e-13, 0.05, 1.0 / 3.0, 1.0, 4.0, 20.0]),
        st.just(abs(c[a] - c[b]) + edge),
        st.integers(1, 3).map(lambda k: k * abs(c[a]) + edge),
    ))
    return form, groups, x, shift


_oracle_settings = settings(max_examples=300, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


class TestGroupPassesMatchTheLoops:
    @_oracle_settings
    @given(group_boxes())
    def test_structural_floor(self, case):
        form, groups, _, _ = case
        layout = SosLayout(groups, form.c)
        floor, minima = structural_floor(layout, form, form.lb, form.ub)
        expected_floor, expected_minima = structural_floor_loop(
            groups, form, form.lb, form.ub
        )
        assert floor == expected_floor
        if expected_minima is None:
            assert minima is None
        else:
            assert minima.tolist() == expected_minima

    @_oracle_settings
    @given(group_boxes())
    def test_objective_cutoff(self, case):
        form, groups, _, shift = case
        lb, ub = form.lb, form.ub
        floor, _ = structural_floor_loop(groups, form, lb, ub)
        cutoff = (floor if math.isfinite(floor) else 0.0) + shift
        expected_counts, got_counts = {}, {}
        expected = objective_cutoff_loop(groups, form, cutoff, lb, ub, 1e-6,
                                         expected_counts)
        got = apply_objective_cutoff(SosLayout(groups, form.c), form, cutoff,
                                     lb, ub, 1e-6, got_counts)
        assert got[0] == expected[0]
        np.testing.assert_array_equal(got[1], expected[1])
        np.testing.assert_array_equal(got[2], expected[2])
        # Unchanged boxes come back as the very same arrays.
        assert (got[2] is ub) == (expected[2] is ub)
        assert got_counts == expected_counts

    @_oracle_settings
    @given(group_boxes())
    def test_select_sos_group(self, case):
        form, groups, x, _ = case
        solver = BranchAndBoundSolver()
        tol = solver.options.integrality_tol
        expected = select_sos_group_loop(groups, x, form.lb, form.ub, tol)
        got = solver._select_sos_group(SosLayout(groups, form.c), x, form.lb, form.ub)
        if expected is None:
            assert got is None
        else:
            assert tuple(got[0].tolist()) == expected[0]
            np.testing.assert_array_equal(got[1], expected[1])

    def test_select_sos_group_rounds_scores_like_the_loop(self):
        # Same LP values in a different order: summed member by member the
        # first group scores 0.6000000000000001 and the second 0.6, so the
        # loop branches on the first; a sum that starts from a different
        # member (``np.add.reduceat``) would flip the choice.
        groups = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        x = np.array([0.1, 0.2, 0.3, 0.3, 0.2, 0.1])
        lb, ub = np.zeros(6), np.ones(6)
        got = BranchAndBoundSolver()._select_sos_group(
            SosLayout(groups, np.zeros(6)), x, lb, ub
        )
        assert select_sos_group_loop(groups, x, lb, ub, 1e-6)[0] == (0, 1, 2)
        assert tuple(got[0].tolist()) == (0, 1, 2)


class TestKnapsackAndBasics:
    def test_small_knapsack_optimum(self):
        m, xs = knapsack_model([10, 13, 7, 8], [5, 6, 3, 4], 10)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-21.0)
        chosen = {i for i, x in enumerate(xs) if solution.rounded(x) == 1}
        assert chosen == {1, 3}

    def test_pure_simplex_backend_matches(self):
        m, _ = knapsack_model([10, 13, 7, 8], [5, 6, 3, 4], 10)
        solution = create_solver("simplex").solve(m)  # the bnb-pure alias
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-21.0)

    def test_revised_kernel_errors_fall_back_to_the_tableau(self):
        m, _ = knapsack_model([10, 13, 7, 8], [5, 6, 3, 4], 10)
        # No pivot budget: every revised solve reports an error, so each
        # node LP is re-solved by the dense tableau (and counted twice).
        broken = RevisedOptions(max_iterations=0)
        solution = BranchAndBoundSolver(revised_options=broken,
                                        root_heuristic=False).solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-21.0)
        assert solution.stats.lp_solves > 0
        assert solution.stats.lp_solves % 2 == 0
        assert solution.stats.warm_lp_solves == 0

    def test_all_items_fit(self):
        m, xs = knapsack_model([1, 2, 3], [1, 1, 1], 10)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.objective == pytest.approx(-6.0)
        assert all(solution.rounded(x) == 1 for x in xs)

    def test_integer_variables_beyond_binary(self):
        # min 3x + 4y s.t. 2x + y >= 7, x + 3y >= 8, x,y integer >= 0.
        m = Model()
        x = m.add_integer("x", ub=20)
        y = m.add_integer("y", ub=20)
        m.add_constraint(2 * x + y >= 7)
        m.add_constraint(x + 3 * y >= 8)
        m.set_objective(3 * x + 4 * y)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.is_optimal
        x_val, y_val = solution.rounded(x), solution.rounded(y)
        assert 2 * x_val + y_val >= 7 and x_val + 3 * y_val >= 8
        assert solution.objective == pytest.approx(3 * x_val + 4 * y_val)
        # Known optimum is x=3, y=2 (cost 17) or any tie with the same cost.
        assert solution.objective == pytest.approx(17.0)

    def test_infeasible_model_reported(self):
        m = Model()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y >= 3)
        m.set_objective(x + y)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.status == INFEASIBLE
        assert not solution.is_success

    def test_unbounded_model_reported(self):
        m = Model()
        x = m.add_continuous("x")
        m.set_objective(-x)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.status == UNBOUNDED

    def test_maximisation_sense(self):
        m = Model(sense="max")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y <= 1)
        m.set_objective(2 * x + 3 * y)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.objective == pytest.approx(3.0)
        assert solution.rounded(y) == 1


class TestSosBranching:
    def test_assignment_with_sos_branching(self):
        cost = [[3, 1, 4], [2, 5, 1], [6, 2, 3], [1, 1, 9]]
        m, _ = assignment_model(cost, capacity=[2, 2, 2])
        solution = BranchAndBoundSolver().solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(5.0)

    def test_variable_branching_same_optimum(self):
        cost = [[3, 1, 4], [2, 5, 1], [6, 2, 3], [1, 1, 9]]
        m, _ = assignment_model(cost, capacity=[2, 2, 2], sos=False)
        assert not m.sos1_groups
        solution = BranchAndBoundSolver().solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(5.0)

    def test_tight_capacity_forces_spread(self):
        cost = [[1, 10], [1, 10], [1, 10]]
        m, z = assignment_model(cost, capacity=[1, 2])
        solution = BranchAndBoundSolver().solve(m)
        assert solution.is_optimal
        # Only one item can take the cheap bin; optimum is 1 + 10 + 10.
        assert solution.objective == pytest.approx(21.0)


class TestLimitsAndWarmStart:
    def test_node_limit_stops_search(self):
        rng = np.random.default_rng(7)
        cost = rng.integers(1, 20, size=(12, 4)).tolist()
        m, _ = assignment_model(cost, capacity=[3, 3, 3, 3])
        solution = BranchAndBoundSolver(node_limit=1).solve(m)
        assert solution.status in (NODE_LIMIT, OPTIMAL)
        assert solution.stats.nodes_explored <= 1

    def test_time_limit_reported(self):
        rng = np.random.default_rng(11)
        cost = rng.integers(1, 50, size=(20, 5)).tolist()
        m, _ = assignment_model(cost, capacity=[4, 4, 4, 4, 4])
        solution = BranchAndBoundSolver(time_limit=0.0).solve(m)
        assert solution.status in (TIMEOUT, OPTIMAL)

    def test_warm_start_is_used_as_incumbent(self):
        cost = [[3, 1], [2, 5], [6, 2]]
        m, z = assignment_model(cost, capacity=[3, 3])
        warm = np.zeros(m.num_variables)
        for i in range(3):
            warm[z[i][0].index] = 1.0  # all items in bin 0 (feasible, not optimal)
        solution = BranchAndBoundSolver(warm_start=warm).solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(1 + 2 + 2)
        assert solution.stats.incumbent_updates >= 1

    def test_bad_warm_start_length_rejected(self):
        m, _ = knapsack_model([1, 2], [1, 1], 1)
        with pytest.raises(ModelError):
            BranchAndBoundSolver(warm_start=np.zeros(5)).solve(m)



class TestCreateSolver:
    def test_default_factory(self):
        assert isinstance(create_solver(None), BranchAndBoundSolver)
        assert isinstance(create_solver("auto"), BranchAndBoundSolver)

    def test_pure_factory_forces_revised(self):
        m, _ = knapsack_model([10, 13, 7, 8], [5, 6, 3, 4], 10)
        solution = create_solver("bnb-pure").solve(m)
        assert solution.stats.backend == "bnb+revised"
        with pytest.raises(ModelError):
            create_solver("bnb-tableau")

    @pytest.mark.skipif(not highs_available(), reason="SciPy/HiGHS not installed")
    def test_scipy_factory(self):
        solver = create_solver("scipy-milp", time_limit=5.0, node_limit=10)
        assert isinstance(solver, ScipyMilpSolver)
        assert solver.time_limit == 5.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError):
            create_solver("cplex")

    @pytest.mark.parametrize("option, value", [
        ("heuristics", "off"),
        ("heuristic_freq", 2),
        ("heuristic_seed", 7),
        ("node_rounding", False),
        ("log", True),
        ("lp_backend", "simplex"),
        ("simplex_options", None),
        ("lp_pricing", "devex"),
        ("lp_factorization", "lu"),
        ("branching", "variable"),
    ])
    def test_removed_options_are_rejected(self, option, value):
        with pytest.raises(TypeError):
            BranchAndBoundSolver(**{option: value})
        assert option not in resolve_backend("bnb-pure").options


@pytest.mark.skipif(not highs_available(), reason="SciPy/HiGHS not installed")
class TestAgreementWithScipyMilp:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_assignment_instances_match(self, seed):
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(4, 9))
        n_bins = int(rng.integers(2, 5))
        cost = rng.integers(1, 30, size=(n_items, n_bins)).tolist()
        capacity = [int(rng.integers(2, n_items + 1)) for _ in range(n_bins)]
        m, _ = assignment_model(cost, capacity)
        ours = BranchAndBoundSolver().solve(m)
        reference = ScipyMilpSolver().solve(m)
        assert ours.status == reference.status
        if ours.is_success:
            assert ours.objective == pytest.approx(reference.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_knapsacks_match(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 12))
        values = rng.integers(1, 40, size=n).tolist()
        weights = rng.integers(1, 15, size=n).tolist()
        capacity = int(max(weights) + rng.integers(5, 25))
        m, _ = knapsack_model(values, weights, capacity)
        ours = BranchAndBoundSolver().solve(m)
        reference = ScipyMilpSolver().solve(m)
        assert ours.objective == pytest.approx(reference.objective, abs=1e-6)
