"""Experiment harness regenerating the paper's evaluation.

The harness measures, for each design point, the end-to-end execution time
of the two approaches the paper compares:

* **global/detailed** — pre-processing + global ILP + detailed mapping
  (:class:`repro.core.MemoryMapper`), and
* **complete** — the single-step flat ILP (:class:`repro.core.CompleteMapper`).

Besides wall-clock time it records model sizes, solver statistics and the
objective values, so the quality claim (both approaches reach the same
optimum) is checked in the same run that produces the timing table.

Environment knobs honoured by :func:`run_table3`:

``REPRO_FULL_TABLE3=1``
    run the full-size Table 3 rows instead of the scaled ones.
``REPRO_SOLVER=<backend>``
    ILP backend for both approaches (default ``scipy-milp`` when SciPy is
    available, else the built-in branch-and-bound); both formulations always
    use the *same* backend so the comparison isolates the formulation.
``REPRO_TIME_LIMIT=<seconds>``
    per-solve time limit (default 120 s); a complete-formulation solve that
    hits the limit is reported with the limit as a lower bound on its time,
    which is how the "explodes for large problems" behaviour shows up
    without stalling the benchmark run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.complete_mapper import CompleteMapper
from ..core.mapping import MappingError
from ..core.objective import CostWeights
from ..core.pipeline import MemoryMapper
from ..engine import (
    MODE_COMPLETE,
    MODE_PIPELINE,
    STATUS_ERROR,
    STATUS_OK,
    JobResult,
    MappingEngine,
    MappingJob,
)
from ..ilp import highs_available
from .artifacts import write_bench_artifact
from .designpoints import DesignPoint, default_design_points

__all__ = ["ExperimentRow", "Table3Harness", "run_table3", "default_solver_backend"]


def default_solver_backend() -> str:
    """Backend used by the benchmarks unless ``REPRO_SOLVER`` overrides it."""
    backend = os.environ.get("REPRO_SOLVER", "").strip()
    if backend:
        return backend
    return "scipy-milp" if highs_available() else "auto"


def default_time_limit() -> float:
    value = os.environ.get("REPRO_TIME_LIMIT", "").strip()
    if value:
        return float(value)
    return 120.0


@dataclass
class ExperimentRow:
    """Measured results of one design point (one row of Table 3)."""

    point: DesignPoint
    global_detailed_seconds: float
    complete_seconds: float
    global_objective: float
    complete_objective: Optional[float]
    global_status: str
    complete_status: str
    global_model_size: Dict[str, int] = field(default_factory=dict)
    complete_model_size: Dict[str, int] = field(default_factory=dict)
    complete_timed_out: bool = False
    #: aggregated solver work of the global/detailed flow (LP solves,
    #: nodes, presolve reductions) — see ``MappingResult.solve_stats``.
    global_solve_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Complete time divided by global/detailed time (>1 favours the paper)."""
        if self.global_detailed_seconds <= 0:
            return float("inf")
        return self.complete_seconds / self.global_detailed_seconds

    @property
    def objectives_match(self) -> bool:
        """Whether both approaches reached the same optimum (within 0.1%)."""
        if self.complete_objective is None:
            return False
        scale = max(1e-9, abs(self.global_objective))
        return abs(self.complete_objective - self.global_objective) / scale <= 1e-3


class Table3Harness:
    """Runs the complete vs. global/detailed comparison over design points."""

    def __init__(
        self,
        points: Optional[Sequence[DesignPoint]] = None,
        solver: Optional[str] = None,
        time_limit: Optional[float] = None,
        seed: int = 0,
        occupancy: float = 0.45,
        weights: Optional[CostWeights] = None,
        run_complete: bool = True,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        artifact_dir: Optional[str] = None,
        warm_retries: bool = True,
        presolve: bool = True,
    ) -> None:
        self.points = tuple(points) if points is not None else default_design_points()
        self.solver = solver or default_solver_backend()
        self.time_limit = default_time_limit() if time_limit is None else time_limit
        self.seed = seed
        self.occupancy = occupancy
        self.weights = weights or CostWeights()
        self.run_complete = run_complete
        self.jobs = max(1, int(jobs))
        self.cache_dir = cache_dir
        self.artifact_dir = artifact_dir
        #: benchmark knobs for comparing against the pre-presolve solve
        #: path: cold retries and/or presolve off reproduce it.
        self.warm_retries = warm_retries
        self.presolve = presolve

    def _solver_options(self) -> Dict[str, object]:
        options: Dict[str, object] = {"time_limit": self.time_limit}
        if not self.presolve:
            # The faithful pre-refactor path: no root presolve, no
            # node-level bound propagation, no incumbent-cutoff filtering.
            options["presolve"] = False
            options["node_presolve"] = False
            options["objective_cutoff"] = False
        return options

    # ------------------------------------------------------------------ api
    def run_point(self, point: DesignPoint) -> ExperimentRow:
        """Measure one design point."""
        design, board = point.build(seed=self.seed, occupancy=self.occupancy)
        solver_options = self._solver_options()

        # Global/detailed approach (pre-processing is included in the timing,
        # as the paper notes it is for its own measurements).
        mapper = MemoryMapper(
            board,
            weights=self.weights,
            solver=self.solver,
            solver_options=solver_options,
            warm_start=False,
            warm_retries=self.warm_retries,
        )
        start = time.perf_counter()
        result = mapper.map(design)
        global_seconds = time.perf_counter() - start
        global_artifacts = mapper.global_mapper.build_model(design)
        global_model_size = {
            "variables": global_artifacts.model.num_variables,
            "constraints": global_artifacts.model.num_constraints,
        }

        complete_seconds = 0.0
        complete_objective: Optional[float] = None
        complete_status = "skipped"
        complete_model_size: Dict[str, int] = {}
        timed_out = False
        if self.run_complete:
            complete = CompleteMapper(
                board,
                weights=self.weights,
                solver=self.solver,
                solver_options=solver_options,
            )
            start = time.perf_counter()
            try:
                outcome = complete.solve(design)
                complete_seconds = time.perf_counter() - start
                complete_objective = outcome.global_mapping.objective
                complete_status = outcome.solver_status
                complete_model_size = outcome.model_size
                timed_out = outcome.solver_status in ("timeout", "node_limit")
            except MappingError:
                # The solver hit its limit without an incumbent: report the
                # limit as a (censored) lower bound on the solve time.
                complete_seconds = time.perf_counter() - start
                complete_status = "timeout"
                timed_out = True

        return ExperimentRow(
            point=point,
            global_detailed_seconds=global_seconds,
            complete_seconds=complete_seconds,
            global_objective=result.global_mapping.objective,
            complete_objective=complete_objective,
            global_status=result.global_mapping.solver_status,
            complete_status=complete_status,
            global_model_size=global_model_size,
            complete_model_size=complete_model_size,
            complete_timed_out=timed_out,
            global_solve_stats=dict(result.solve_stats),
        )

    def run(self) -> List[ExperimentRow]:
        """Measure every design point, in parallel when ``jobs > 1``.

        Both execution paths produce identical mapping results; the
        parallel path dispatches the per-point solves — global/detailed
        and, when enabled, the complete formulation — as engine jobs
        across worker processes.
        """
        start = time.perf_counter()
        if self.jobs <= 1:
            rows = [self.run_point(point) for point in self.points]
        else:
            rows = self._run_parallel()
        if self.artifact_dir is not None:
            write_bench_artifact(
                "table3",
                self._artifact(rows, time.perf_counter() - start),
                self.artifact_dir,
            )
        return rows

    # ------------------------------------------------------- parallel sweep
    def _run_parallel(self) -> List[ExperimentRow]:
        batch: List[MappingJob] = []
        for point in self.points:
            design, board = point.build(seed=self.seed, occupancy=self.occupancy)
            common = dict(
                board=board,
                design=design,
                weights=self.weights,
                solver=self.solver,
                solver_options=self._solver_options(),
                timeout=self.time_limit,
                # run_point measures with warm_start=False; the parallel
                # path must solve the exact same configuration.
                warm_start=False,
                warm_retries=self.warm_retries,
            )
            batch.append(MappingJob(
                mode=MODE_PIPELINE, label=f"global/detailed {point.label()}", **common
            ))
            if self.run_complete:
                batch.append(MappingJob(
                    mode=MODE_COMPLETE, label=f"complete {point.label()}", **common
                ))
        engine = MappingEngine(jobs=self.jobs, cache_dir=self.cache_dir)
        results = engine.run(batch)

        stride = 2 if self.run_complete else 1
        rows = []
        for i, point in enumerate(self.points):
            pipeline = results[i * stride]
            complete = results[i * stride + 1] if self.run_complete else None
            rows.append(self._row_from_results(point, pipeline, complete))
        return rows

    def _row_from_results(
        self,
        point: DesignPoint,
        pipeline: JobResult,
        complete: Optional[JobResult],
    ) -> ExperimentRow:
        if pipeline.status == STATUS_ERROR:
            # run_point would have propagated the worker's exception.
            raise MappingError(
                f"global/detailed mapping of {point.label()} crashed: "
                f"{pipeline.error}"
            )
        if not pipeline.ok:
            raise MappingError(
                f"global/detailed mapping of {point.label()} failed: "
                f"{pipeline.error or pipeline.status}"
            )
        complete_seconds = 0.0
        complete_objective: Optional[float] = None
        complete_status = "skipped"
        complete_model_size: Dict[str, int] = {}
        timed_out = False
        if complete is not None:
            complete_seconds = complete.wall_time
            if complete.status == STATUS_OK:
                complete_objective = complete.objective
                complete_status = complete.solver_status
                complete_model_size = dict(complete.model_size)
                timed_out = complete.solver_status in ("timeout", "node_limit")
            elif complete.status == STATUS_ERROR:
                raise MappingError(
                    f"complete mapping of {point.label()} crashed: "
                    f"{complete.error}"
                )
            else:
                # Same censoring as run_point: a solve that died on its
                # limit is reported with the measured time as a lower bound
                # (the full budget when the worker never reported back).
                complete_seconds = (
                    complete.wall_time if complete.wall_time > 0 else self.time_limit
                )
                complete_status = "timeout"
                timed_out = True
        return ExperimentRow(
            point=point,
            global_detailed_seconds=pipeline.wall_time,
            complete_seconds=complete_seconds,
            global_objective=pipeline.objective,
            complete_objective=complete_objective,
            global_status=pipeline.solver_status,
            complete_status=complete_status,
            global_model_size=dict(pipeline.model_size),
            complete_model_size=complete_model_size,
            complete_timed_out=timed_out,
            global_solve_stats=dict(pipeline.solve_stats),
        )

    def _artifact(self, rows: List[ExperimentRow], elapsed: float) -> Dict[str, object]:
        serial_seconds = sum(
            row.global_detailed_seconds + row.complete_seconds for row in rows
        )

        def stat_total(key: str) -> int:
            return int(sum(int(row.global_solve_stats.get(key, 0) or 0)
                           for row in rows))

        return {
            "kind": "bench_artifact",
            "artifact_version": 1,
            "name": "table3",
            "jobs": self.jobs,
            "solver": self.solver,
            "warm_retries": self.warm_retries,
            "presolve": self.presolve,
            "num_points": len(rows),
            "wall_seconds": elapsed,
            "serial_seconds": serial_seconds,
            "speedup_vs_serial": (serial_seconds / elapsed) if elapsed > 0 else None,
            # Totals of the global/detailed flow's solver work, so two
            # artifacts (e.g. warm+presolve vs the legacy cold path) can be
            # diffed by scripts/bench_compare.py.
            "total_lp_solves": stat_total("lp_solves"),
            "total_nodes_explored": stat_total("nodes_explored"),
            "total_simplex_iterations": stat_total("simplex_iterations"),
            "total_warm_lp_solves": stat_total("warm_lp_solves"),
            "total_basis_reuses": stat_total("basis_reuses"),
            "total_refactorizations": stat_total("refactorizations"),
            "total_global_solves": stat_total("global_solves"),
            "total_retries": stat_total("retries"),
            "total_presolve_rows_dropped": stat_total("presolve_rows_dropped"),
            "total_presolve_cols_fixed": stat_total("presolve_cols_fixed"),
            "total_heuristic_incumbents": stat_total("heuristic_incumbents"),
            "results": [
                {
                    "label": row.point.label(),
                    "global_detailed_seconds": row.global_detailed_seconds,
                    "complete_seconds": row.complete_seconds,
                    "global_status": row.global_status,
                    "complete_status": row.complete_status,
                    "global_objective": row.global_objective,
                    "complete_objective": row.complete_objective,
                    "objectives_match": row.objectives_match,
                    "speedup": None if row.complete_objective is None else row.speedup,
                    "global_model_size": dict(row.global_model_size),
                    "complete_model_size": dict(row.complete_model_size),
                    "solve_stats": dict(row.global_solve_stats),
                }
                for row in rows
            ],
        }


def run_table3(
    points: Optional[Sequence[DesignPoint]] = None,
    solver: Optional[str] = None,
    time_limit: Optional[float] = None,
    seed: int = 0,
    run_complete: bool = True,
    jobs: int = 1,
    artifact_dir: Optional[str] = None,
    warm_retries: bool = True,
    presolve: bool = True,
) -> List[ExperimentRow]:
    """One-call version of the Table 3 experiment (used by the benchmarks)."""
    harness = Table3Harness(
        points=points,
        solver=solver,
        time_limit=time_limit,
        seed=seed,
        run_complete=run_complete,
        jobs=jobs,
        artifact_dir=artifact_dir,
        warm_retries=warm_retries,
        presolve=presolve,
    )
    return harness.run()
