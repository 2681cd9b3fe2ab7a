"""Unit tests for the Model container (variables, constraints, SOS, queries)."""

from __future__ import annotations

import pytest

from repro.ilp import MAXIMIZE, MINIMIZE, Model, ModelError


class TestVariableManagement:
    def test_duplicate_names_rejected(self):
        m = Model()
        m.add_binary("x")
        with pytest.raises(ModelError):
            m.add_binary("x")

    def test_auto_generated_names_are_unique(self):
        m = Model()
        a = m.add_binary()
        b = m.add_binary()
        assert a.name != b.name

    def test_var_by_name_roundtrip(self):
        m = Model()
        x = m.add_binary("x")
        assert m.var_by_name("x") is x
        with pytest.raises(ModelError):
            m.var_by_name("missing")

    def test_counts(self):
        m = Model()
        m.add_binary("b")
        m.add_integer("i", ub=10)
        m.add_continuous("c")
        assert m.num_variables == 3
        assert m.num_binary == 1
        assert m.num_integer == 2

    def test_add_binaries_batch(self):
        m = Model()
        xs = m.add_binaries([f"x{i}" for i in range(4)])
        assert len(xs) == 4
        assert m.num_variables == 4


class TestConstraintsAndObjective:
    def test_add_constraint_assigns_default_name(self):
        m = Model()
        x = m.add_binary("x")
        c = m.add_constraint(x <= 1)
        assert c.name == "c0"

    def test_add_constraint_rejects_bool(self):
        m = Model()
        m.add_binary("x")
        with pytest.raises(ModelError):
            m.add_constraint(True)  # type: ignore[arg-type]

    def test_objective_sense_switch(self):
        m = Model(sense=MINIMIZE)
        x = m.add_binary("x")
        m.set_objective(x, sense=MAXIMIZE)
        assert m.sense == MAXIMIZE

    def test_invalid_sense_rejected(self):
        with pytest.raises(ModelError):
            Model(sense="sideways")

    def test_nonzero_count(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constraint(x + y <= 1)
        m.add_constraint(x <= 1)
        assert m.num_nonzeros == 3

    def test_summary_mentions_counts(self):
        m = Model("demo")
        x = m.add_binary("x")
        m.add_constraint(x <= 1)
        text = m.summary()
        assert "demo" in text and "1 vars" in text and "1 cons" in text


class TestSosGroups:
    def test_sos_requires_binary_members(self):
        m = Model()
        x = m.add_continuous("x", ub=1)
        with pytest.raises(ModelError):
            m.add_sos1([x])

    def test_sos_members_recorded_by_index(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(3)]
        group = m.add_sos1(xs, name="g")
        assert group.members == tuple(x.index for x in xs)
        assert m.sos1_groups[0].name == "g"


    def test_sos_groups_must_be_disjoint(self):
        m = Model()
        xs = m.add_binaries(["a", "b", "c"])
        m.add_sos1(xs[:2], name="first")
        with pytest.raises(ModelError, match="'b' already belongs to group 'first'"):
            m.add_sos1(xs[1:], name="second")
        # The rejected group left nothing behind: 'c' is still free.
        assert len(m.sos1_groups) == 1
        m.add_sos1([xs[2]], name="third")
        assert [g.name for g in m.sos1_groups] == ["first", "third"]

    def test_sos_member_listed_twice_rejected(self):
        m = Model()
        x, y = m.add_binaries(["x", "y"])
        with pytest.raises(ModelError, match="'x' already belongs to group 'g'"):
            m.add_sos1([x, y, x], name="g")
        assert m.sos1_groups == []


class TestFeasibilityChecking:
    def test_feasible_assignment_accepted(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constraint(x + y <= 1)
        assert m.is_feasible([1, 0])
        assert m.is_feasible([0, 0])

    def test_bound_violation_detected(self):
        m = Model()
        m.add_binary("x")
        assert not m.is_feasible([2])

    def test_integrality_violation_detected(self):
        m = Model()
        m.add_binary("x")
        assert not m.is_feasible([0.5])

    def test_violated_constraints_listed(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        c1 = m.add_constraint(x + y <= 1, name="cap")
        m.add_constraint(x >= 0, name="lb")
        violated = m.violated_constraints([1, 1])
        assert violated == [c1]

    def test_objective_value(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.set_objective(3 * x + 2 * y + 1)
        assert m.objective_value([1, 1]) == pytest.approx(6.0)


class TestSolveDispatch:
    def test_solve_with_unknown_backend_raises(self):
        m = Model()
        x = m.add_binary("x")
        m.set_objective(x)
        with pytest.raises(ModelError):
            m.solve("no-such-solver")

    def test_solve_with_default_backend(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constraint(x + y >= 1)
        m.set_objective(x + 2 * y)
        solution = m.solve()
        assert solution.is_optimal
        assert solution.objective == pytest.approx(1.0)
        assert solution.rounded(x) == 1
