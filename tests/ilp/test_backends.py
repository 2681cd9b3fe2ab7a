"""Unit tests for the pluggable solver-backend registry and the default path."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.ilp import (
    BackendInfo,
    BranchAndBoundSolver,
    Model,
    ModelError,
    ScipyMilpSolver,
    SolverBackend,
    backend_names,
    create_backend,
    create_solver,
    highs_available,
    list_backends,
    register_backend,
    resolve_backend,
    quicksum,
)


def knapsack_model() -> Model:
    model = Model("knapsack")
    values = [6, 5, 4, 3, 2]
    weights = [4, 3, 3, 2, 1]
    x = [model.add_binary(f"x{i}") for i in range(len(values))]
    model.add_constraint(quicksum(w * v for w, v in zip(weights, x)) <= 7)
    model.set_objective(quicksum(-value * var for value, var in zip(values, x)))
    return model


class TestRegistry:
    def test_registry_holds_exactly_bnb_pure_and_scipy_milp(self):
        assert backend_names() == ["bnb-pure", "scipy-milp"]

    def test_legacy_names_resolve_through_registry(self):
        assert resolve_backend(None).name == "bnb-pure"
        assert resolve_backend("auto").name == "bnb-pure"
        assert resolve_backend("bnb").name == "bnb-pure"
        assert resolve_backend("branch-and-bound").name == "bnb-pure"
        assert resolve_backend("pure").name == "bnb-pure"
        assert resolve_backend("simplex").name == "bnb-pure"
        assert resolve_backend("scipy").name == "scipy-milp"
        assert resolve_backend("highs-milp").name == "scipy-milp"

    def test_create_solver_keeps_backward_compatibility(self):
        for name in (None, "auto", "bnb", "bnb-pure"):
            solver = create_solver(name)
            assert isinstance(solver, BranchAndBoundSolver)
            assert solver.options.lp_backend == "revised"
        if highs_available():
            assert isinstance(create_solver("scipy-milp"), ScipyMilpSolver)

    def test_unknown_backend_raises_model_error(self):
        for name in ("cplex", "portfolio", "race", "bnb-tableau", "tableau"):
            with pytest.raises(ModelError, match="unknown solver backend"):
                create_backend(name)

    def test_options_filtered_to_backend_schema(self):
        if not highs_available():
            pytest.skip("SciPy not available")
        # node_limit is a branch-and-bound knob; the HiGHS wrapper ignores it.
        solver = create_backend("scipy-milp", time_limit=5.0, node_limit=10)
        assert solver.time_limit == 5.0

    def test_every_backend_satisfies_the_protocol(self):
        for info in list_backends():
            if not info.available:
                continue
            assert isinstance(info.create(), SolverBackend)

    def test_backend_info_declares_options_and_capabilities(self):
        for info in list_backends():
            assert info.description
            assert info.capabilities
            assert "milp" in info.capabilities
            assert all(isinstance(k, str) and v for k, v in info.options.items())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ModelError):
            register_backend(BackendInfo(
                name="impostor",
                factory=BranchAndBoundSolver,
                description="steals an existing alias",
                capabilities=frozenset({"milp"}),
                aliases=("bnb",),
            ))

    def test_custom_backend_registers_and_creates(self):
        info = BackendInfo(
            name="test-custom-bnb",
            factory=BranchAndBoundSolver,
            description="test-only registration",
            capabilities=frozenset({"milp"}),
            options={"time_limit": "seconds"},
        )
        register_backend(info)
        try:
            assert "test-custom-bnb" in backend_names()
            solver = create_backend("test-custom-bnb", time_limit=1.0, bogus=1)
            assert isinstance(solver, BranchAndBoundSolver)
            assert solver.options.time_limit == 1.0
        finally:
            # keep the global registry clean for other tests
            from repro.ilp import backends as backends_module

            backends_module._REGISTRY.pop("test-custom-bnb")
            backends_module._ALIASES.pop("test-custom-bnb")


def _run_isolated(code: str, *, block_scipy: bool, tmp_path) -> str:
    """Run ``code`` in a fresh interpreter (optionally with SciPy unimportable)."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    paths = [os.path.abspath(src)]
    if block_scipy:
        shadow = tmp_path / "scipy"
        shadow.mkdir()
        (shadow / "__init__.py").write_text("raise ImportError('scipy blocked')\n")
        paths.insert(0, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestDefaultPath:
    """The default solve path is the pure-Python tree and needs only NumPy."""

    def test_default_map_loads_neither_scipy_nor_networkx(self, tmp_path):
        out = _run_isolated(
            """
            import contextlib, io, sys
            import repro
            from repro import MemoryMapper, hierarchical_board, image_pipeline_design
            from repro.cli import main

            result = MemoryMapper(hierarchical_board()).map(image_pipeline_design())
            assert result.global_mapping.solver_status == "optimal"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["map", "--board", "hierarchical",
                             "--design", "image-pipeline"]) == 0
            print(sorted(m for m in ("scipy", "networkx") if m in sys.modules))
            """,
            block_scipy=False, tmp_path=tmp_path,
        )
        assert out.strip() == "[]"

    def test_auto_resolves_to_bnb_pure_without_scipy(self, tmp_path):
        out = _run_isolated(
            """
            from repro.ilp import highs_available, resolve_backend
            from repro import MemoryMapper, hierarchical_board, image_pipeline_design

            assert not highs_available()
            assert not resolve_backend("scipy-milp").available
            result = MemoryMapper(hierarchical_board()).map(image_pipeline_design())
            print(resolve_backend("auto").name, resolve_backend(None).name,
                  result.global_mapping.solver_status)
            """,
            block_scipy=True, tmp_path=tmp_path,
        )
        assert out.split() == ["bnb-pure", "bnb-pure", "optimal"]
