"""Warm-basis reuse must change solver effort, never the mapping.

The revised kernel threads the parent node's optimal basis into child
re-solves (dual simplex) and the :class:`SolveContext` carries the root
basis across the pipeline's Section 4.1 retries.  These tests pin the
two contracts the rest of the system relies on: fingerprint identity
with basis reuse disabled, and the basis actually being reused (the
counters are surfaced all the way into ``MappingResult.solve_stats``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import BankType, Board
from repro.bench.designpoints import default_design_points
from repro.core import MemoryMapper
from repro.engine.cache import result_fingerprint
from repro.ilp import BranchAndBoundSolver, SolveContext
from repro.io.serialize import mapping_result_to_dict


@pytest.fixture
def retry_board() -> Board:
    """A board whose 3-port type makes the first detailed attempt fail."""
    tri = BankType(name="tri", num_instances=3, num_ports=3,
                   configurations=[(128, 1), (64, 2), (32, 4), (16, 8)])
    slow = BankType(name="slow", num_instances=2, num_ports=1,
                    configurations=[(16384, 32)], read_latency=3,
                    write_latency=3, pins_traversed=2)
    return Board(name="tri-board", bank_types=(tri, slow))


@pytest.fixture
def retry_design():
    from repro.design import Design

    return Design.from_segments(
        "threeport",
        [("a", 8, 8), ("b", 8, 8), ("c", 8, 8), ("d", 8, 8), ("e", 8, 8)],
    )


BACKENDS = ["bnb-pure"]


class TestFingerprintIdentity:
    @pytest.mark.parametrize("solver", BACKENDS)
    def test_basis_reuse_matches_cold_solves(self, retry_board, retry_design, solver):
        warm = MemoryMapper(retry_board, max_retries=5, solver=solver).map(retry_design)
        cold = MemoryMapper(
            retry_board, max_retries=5, solver=solver,
            solver_options={"reuse_basis": False},
        ).map(retry_design)
        fp_warm = result_fingerprint(mapping_result_to_dict(warm))
        fp_cold = result_fingerprint(mapping_result_to_dict(cold))
        assert fp_warm == fp_cold
        assert warm.cost.weighted_total == pytest.approx(cold.cost.weighted_total)

    def test_table3_points_are_fingerprint_identical(self):
        """Every scaled Table 3 point: reuse on vs off, same mapping."""
        for point in default_design_points()[:4]:
            design, board = point.build()
            warm = MemoryMapper(board, solver="bnb-pure").map(design)
            cold = MemoryMapper(
                board, solver="bnb-pure",
                solver_options={"reuse_basis": False},
            ).map(design)
            fp_warm = result_fingerprint(mapping_result_to_dict(warm))
            fp_cold = result_fingerprint(mapping_result_to_dict(cold))
            assert fp_warm == fp_cold, point.label()


class TestReuseActuallyHappens:
    def test_node_resolves_record_basis_reuses(self):
        point = default_design_points()[2]
        design, board = point.build()
        result = MemoryMapper(board, solver="bnb-pure").map(design)
        stats = result.solve_stats
        assert stats["basis_reuses"] > 0
        assert stats["warm_lp_solves"] > 0
        assert stats["refactorizations"] > 0

    def test_cold_mode_records_none(self):
        point = default_design_points()[2]
        design, board = point.build()
        result = MemoryMapper(
            board, solver="bnb-pure",
            solver_options={"reuse_basis": False},
        ).map(design)
        assert result.solve_stats["basis_reuses"] == 0
        assert result.solve_stats["warm_lp_solves"] == 0


class TestContextCarriesTheBasis:
    def _model(self):
        from repro.ilp import Model, quicksum

        model = Model("ctx-basis")
        x = [model.add_binary(f"x{i}") for i in range(6)]
        for group in (x[:3], x[3:]):
            model.add_constraint(quicksum(group) == 1)
            model.add_sos1(group)
        model.add_constraint(2 * x[0] + x[3] + x[4] <= 2)
        model.set_objective(
            quicksum(float(w) * v for w, v in zip((3, 1, 2, 2, 1, 3), x))
        )
        return model

    #: the greedy root heuristic + cutoff filter fathom the toy model
    #: without a single LP solve; disable them so a root LP actually
    #: runs and exports its basis (this is a mechanics test, not a
    #: heuristics test).
    _LP_FORCING = dict(root_heuristic=False, objective_cutoff=False,
                       node_presolve=False, presolve=False)

    def test_retry_style_resolve_reuses_the_root_basis(self):
        model = self._model()
        context = SolveContext()
        first = BranchAndBoundSolver(
            context=context, **self._LP_FORCING
        ).solve(model)
        assert first.is_optimal
        assert first.stats.lp_solves > 0
        assert context.warm_basis is not None
        second = BranchAndBoundSolver(
            context=context, fix_zero=[1],
            **self._LP_FORCING,
        ).solve(model)
        assert second.is_optimal
        assert second.stats.basis_reuses > 0

    def test_round_trips_preserve_the_basis(self):
        model = self._model()
        context = SolveContext()
        BranchAndBoundSolver(
            context=context, **self._LP_FORCING
        ).solve(model)
        assert context.warm_basis is not None

        full = SolveContext.from_dict(context.as_dict())
        assert full.warm_basis is not None
        assert np.array_equal(full.warm_basis.basis, context.warm_basis.basis)
        assert np.array_equal(full.warm_basis.status, context.warm_basis.status)

        chained = SolveContext.from_chain_dict(context.chain_dict())
        assert chained.warm_basis is not None
        assert np.array_equal(chained.warm_basis.basis, context.warm_basis.basis)

    def test_foreign_basis_is_harmless(self):
        """A chained basis from a different model must silently cold-start."""
        model = self._model()
        context = SolveContext()
        BranchAndBoundSolver(
            context=context, **self._LP_FORCING
        ).solve(model)

        from repro.ilp import Model, quicksum

        other = Model("other-shape")
        y = [other.add_binary(f"y{i}") for i in range(9)]
        other.add_constraint(quicksum(y) == 2)
        other.set_objective(quicksum(float(i) * v for i, v in enumerate(y)))
        chained = SolveContext.from_chain_dict(context.chain_dict())
        solution = BranchAndBoundSolver(
            context=chained
        ).solve(other)
        assert solution.is_optimal
