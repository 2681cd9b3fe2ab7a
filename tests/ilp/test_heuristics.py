"""Unit tests for the primal heuristics that seed branch-and-bound."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ilp import Model, quicksum, to_standard_form
from repro.ilp.heuristics import SosLayout, round_with_sos, sos_greedy_assignment


def make_assignment_model(cost, capacity):
    m = Model("assign")
    n_items, n_bins = len(cost), len(cost[0])
    z = {}
    for i in range(n_items):
        row = [m.add_binary(f"z[{i},{j}]") for j in range(n_bins)]
        z[i] = row
        m.add_constraint(quicksum(row) == 1)
        m.add_sos1(row)
    for j in range(n_bins):
        m.add_constraint(quicksum(z[i][j] for i in range(n_items)) <= capacity[j])
    m.set_objective(
        quicksum(cost[i][j] * z[i][j] for i in range(n_items) for j in range(n_bins))
    )
    return m, z


class TestRoundWithSos:
    def test_rounds_clean_fractional_point_to_feasible(self):
        cost = [[1, 5], [4, 2]]
        m, z = make_assignment_model(cost, capacity=[2, 2])
        form = to_standard_form(m)
        x = np.zeros(m.num_variables)
        x[z[0][0].index] = 0.7
        x[z[0][1].index] = 0.3
        x[z[1][0].index] = 0.4
        x[z[1][1].index] = 0.6
        rounded = round_with_sos(m, form, x)
        assert rounded is not None
        assert rounded[z[0][0].index] == 1.0
        assert rounded[z[1][1].index] == 1.0
        assert m.is_feasible(rounded)

    def test_returns_none_when_rounding_breaks_capacity(self):
        cost = [[1, 5], [1, 5], [1, 5]]
        m, z = make_assignment_model(cost, capacity=[1, 3])
        form = to_standard_form(m)
        x = np.zeros(m.num_variables)
        for i in range(3):  # every group leans toward the capacity-1 bin
            x[z[i][0].index] = 0.9
            x[z[i][1].index] = 0.1
        assert round_with_sos(m, form, x) is None

    def test_ties_broken_toward_cheaper_member(self):
        cost = [[7, 1]]
        m, z = make_assignment_model(cost, capacity=[1, 1])
        form = to_standard_form(m)
        x = np.zeros(m.num_variables)
        x[z[0][0].index] = 0.5
        x[z[0][1].index] = 0.5
        rounded = round_with_sos(m, form, x)
        assert rounded is not None
        assert rounded[z[0][1].index] == 1.0


def round_with_sos_loop(model, form, x_frac, tol=1e-6):
    """Reference oracle: the per-group loop ``round_with_sos`` used to run."""
    x = np.asarray(x_frac, dtype=float).copy()
    in_group = np.zeros(form.num_variables, dtype=bool)
    for group in model.sos1_groups:
        members = np.asarray(group.members, dtype=int)
        in_group[members] = True
        values = x[members]
        allowed = form.ub[members] >= 0.5
        forced = form.lb[members] > 0.5
        x[members] = 0.0
        if np.any(forced):
            x[members[np.argmax(forced)]] = 1.0
            continue
        if not np.any(allowed):
            continue
        candidates = members[allowed]
        cand_values = values[allowed]
        order = np.lexsort((form.c[candidates], -cand_values))
        if cand_values.max() > tol:
            x[candidates[order[0]]] = 1.0
    integer_mask = form.integrality & ~in_group
    x[integer_mask] = np.clip(
        np.round(x[integer_mask]), form.lb[integer_mask], form.ub[integer_mask]
    )
    if model.is_feasible(x, tol=1e-6):
        return x
    return None


# Few distinct values, so ties in costs and LP values are common.
COSTS = st.sampled_from([-2.5, -1.0, -0.1, 0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 1.0, 2.0])
VALUES = st.sampled_from([0.0, 1e-7, 0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9, 1.0])
# A member's box: open, emptied by ``ub`` (forbidden) or forced by ``lb``.
MEMBER_BOX = st.sampled_from([(0.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 1.0)])


@st.composite
def rounding_cases(draw):
    """A model with disjoint groups, free integers, a box and an LP point."""
    m = Model("oracle")
    groups = [
        m.add_binaries(f"z[{g},{k}]" for k in range(size))
        for g, size in enumerate(draw(st.lists(st.integers(0, 6), max_size=4)))
    ]
    for members in groups:
        m.add_sos1(members)
    for k in range(draw(st.integers(0, 2))):
        low = draw(st.integers(-3, 0))
        m.add_integer(f"i{k}", lb=low, ub=low + draw(st.integers(0, 4)))
    m.add_continuous("y", lb=0.0, ub=1.0)
    m.set_objective(quicksum(draw(COSTS) * v for v in m.variables))
    firsts = [members[0] for members in groups if members]
    if firsts and draw(st.booleans()):
        m.add_constraint(quicksum(firsts) <= draw(st.integers(0, len(firsts))))
    form = to_standard_form(m)
    lb, ub = form.lb.copy(), form.ub.copy()
    for members in groups:
        for var in members:
            lb[var.index], ub[var.index] = draw(MEMBER_BOX)
    x = np.array([
        draw(VALUES) if var.is_binary
        else draw(st.sampled_from([-2.5, -0.5, 0.4, 1.5, 2.6, 7.0]))
        for var in m.variables
    ])
    return m, form.with_bounds(lb, ub), x


class TestRoundWithSosOracle:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rounding_cases())
    def test_matches_the_per_group_loop(self, case):
        model, form, x = case
        expected = round_with_sos_loop(model, form, x)
        layout = SosLayout([g.members for g in model.sos1_groups], form.c)
        for got in (round_with_sos(model, form, x),
                    round_with_sos(model, form, x, layout=layout)):
            if expected is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, expected)

    def test_forced_member_wins_over_larger_values(self):
        m, z = make_assignment_model([[1, 5, 3]], capacity=[1, 1, 1])
        form = to_standard_form(m)
        lb = form.lb.copy()
        lb[z[0][2].index] = 1.0
        x = np.zeros(m.num_variables)
        x[z[0][0].index] = 0.9
        rounded = round_with_sos(m, form.with_bounds(lb, form.ub), x)
        assert rounded is not None
        assert rounded[z[0][2].index] == 1.0
        assert rounded[z[0][0].index] == 0.0


class TestGreedyAssignment:
    def test_produces_feasible_assignment(self):
        cost = [[3, 1, 4], [2, 5, 1], [6, 2, 3], [1, 1, 9]]
        m, _ = make_assignment_model(cost, capacity=[2, 2, 2])
        form = to_standard_form(m)
        x = sos_greedy_assignment(m, form)
        assert x is not None
        assert m.is_feasible(x)

    def test_greedy_value_bounds_optimum(self):
        cost = [[3, 1, 4], [2, 5, 1], [6, 2, 3], [1, 1, 9]]
        m, _ = make_assignment_model(cost, capacity=[2, 2, 2])
        form = to_standard_form(m)
        x = sos_greedy_assignment(m, form)
        greedy_cost = float(form.c @ x)
        optimal = m.solve().objective
        assert greedy_cost >= optimal - 1e-9

    def test_returns_none_without_sos_groups(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constraint(x <= 1)
        m.set_objective(x)
        assert sos_greedy_assignment(m, to_standard_form(m)) is None

    def test_returns_none_when_capacity_impossible(self):
        cost = [[1, 1], [1, 1], [1, 1]]
        m, _ = make_assignment_model(cost, capacity=[1, 1])
        form = to_standard_form(m)
        assert sos_greedy_assignment(m, form) is None

    def test_bails_out_on_foreign_equalities(self):
        cost = [[1, 2]]
        m, z = make_assignment_model(cost, capacity=[1, 1])
        extra = m.add_binary("extra")
        m.add_constraint(extra.to_expr() == 1)
        form = to_standard_form(m)
        assert sos_greedy_assignment(m, form) is None

    def test_equal_cost_ties_break_on_variable_name(self):
        # Both members of every group cost the same; the greedy must pick
        # the lexicographically-smallest variable name, not whichever
        # index the model happened to create first.  Pins the stable
        # ``(cost, name)`` sort that keeps fast-mode fingerprints
        # reproducible across model construction orders.
        m = Model("ties")
        b = m.add_binary("z[0,b]")
        a = m.add_binary("z[0,a]")
        m.add_constraint(quicksum([a, b]) == 1)
        m.add_sos1([b, a])
        m.add_constraint(a + b <= 1)
        m.set_objective(2.0 * a + 2.0 * b)
        form = to_standard_form(m)
        x = sos_greedy_assignment(m, form)
        assert x is not None
        assert x[a.index] == 1.0
        assert x[b.index] == 0.0

    def test_tie_break_is_construction_order_invariant(self):
        # The same two-member group declared in opposite construction
        # orders must produce the same winner.
        def build(order):
            m = Model("perm")
            vs = {name: m.add_binary(name) for name in order}
            pair = [vs["z[0,p]"], vs["z[0,q]"]]
            m.add_constraint(quicksum(pair) == 1)
            m.add_sos1(pair)
            m.add_constraint(quicksum(pair) <= 1)
            m.set_objective(quicksum(3.0 * v for v in pair))
            x = sos_greedy_assignment(m, to_standard_form(m))
            assert x is not None
            return {name: x[vs[name].index] for name in vs}

        assert build(["z[0,p]", "z[0,q]"]) == build(["z[0,q]", "z[0,p]"])
