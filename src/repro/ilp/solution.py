"""Solution and statistics containers returned by the ILP solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from .expr import Variable

__all__ = ["SolveStats", "Solution", "LpResult", "OPTIMAL", "FEASIBLE",
           "INFEASIBLE", "UNBOUNDED", "TIMEOUT", "NODE_LIMIT", "ERROR"]

# Status constants shared by all solver backends.
OPTIMAL = "optimal"
FEASIBLE = "feasible"          # a valid incumbent exists but optimality unproven
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIMEOUT = "timeout"            # stopped on the wall-clock limit
NODE_LIMIT = "node_limit"      # stopped on the branch-and-bound node limit
ERROR = "error"

_SUCCESS_STATUSES = frozenset({OPTIMAL, FEASIBLE})


@dataclass
class SolveStats:
    """Aggregate work counters for a single solve."""

    wall_time: float = 0.0
    nodes_explored: int = 0
    nodes_pruned: int = 0
    lp_solves: int = 0
    simplex_iterations: int = 0
    #: LP solves completed in the revised kernel's dual warm mode.
    warm_lp_solves: int = 0
    #: node re-solves that accepted an inherited/parent basis.
    basis_reuses: int = 0
    #: basis refactorizations performed by the revised kernel.
    refactorizations: int = 0
    #: refactorization counts keyed by what triggered them
    #: ("start", "interval").
    refactor_triggers: Dict[str, int] = field(default_factory=dict)
    incumbent_updates: int = 0
    #: incumbents found by the fast lane's Lagrangian-guided greedy.
    heuristic_incumbents: int = 0
    best_bound: float = float("nan")
    gap: float = float("nan")
    backend: str = ""
    #: reductions reported by the presolve pass (empty when presolve is off
    #: or the backend has no presolve of its own).
    presolve: Dict[str, int] = field(default_factory=dict)
    #: free-form backend metadata (e.g. the fast lane's dual iterations).
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "wall_time": self.wall_time,
            "nodes_explored": self.nodes_explored,
            "nodes_pruned": self.nodes_pruned,
            "lp_solves": self.lp_solves,
            "simplex_iterations": self.simplex_iterations,
            "warm_lp_solves": self.warm_lp_solves,
            "basis_reuses": self.basis_reuses,
            "refactorizations": self.refactorizations,
            "refactor_triggers": dict(self.refactor_triggers),
            "incumbent_updates": self.incumbent_updates,
            "heuristic_incumbents": self.heuristic_incumbents,
            "best_bound": self.best_bound,
            "gap": self.gap,
            "backend": self.backend,
            "presolve": dict(self.presolve),
            "extra": dict(self.extra),
        }


@dataclass
class LpResult:
    """Result of a single linear-programming relaxation solve."""

    status: str
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    iterations: int = 0
    #: optimal basis snapshot (revised kernel only) for warm re-solves.
    basis: Optional[Any] = None
    #: the solve completed in the dual-simplex warm mode.
    warm: bool = False
    #: a supplied warm basis was accepted (even if the solve later fell
    #: back to the cold primal path).
    basis_reused: bool = False
    #: basis refactorizations this solve performed.
    refactorizations: int = 0
    #: this solve's refactorizations keyed by trigger.
    refactor_triggers: Dict[str, int] = field(default_factory=dict)
    #: structural reduced costs at the optimal basis (revised kernel
    #: only).  Branch-and-bound turns these into valid child-bound lifts
    #: (reduced-cost penalties) that prune children before any LP.
    reduced_costs: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


@dataclass
class Solution:
    """Result of a mixed 0/1 ILP solve.

    ``values`` is indexed by variable *index*; :meth:`value` and
    :meth:`value_by_name` provide the per-variable accessors formulations
    normally use.  ``objective`` is reported in the user's optimisation
    sense (the internal min/max conversion is undone before construction).
    """

    status: str
    objective: float = float("nan")
    values: Optional[np.ndarray] = None
    stats: SolveStats = field(default_factory=SolveStats)
    variable_names: Dict[int, str] = field(default_factory=dict)
    message: str = ""

    @property
    def is_success(self) -> bool:
        """True when a feasible assignment is available."""
        return self.status in _SUCCESS_STATUSES and self.values is not None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def value(self, var: Variable) -> float:
        """Value of ``var`` in the incumbent assignment."""
        if self.values is None:
            raise ValueError(f"solution has no assignment (status={self.status})")
        return float(self.values[var.index])

    def value_by_index(self, index: int) -> float:
        if self.values is None:
            raise ValueError(f"solution has no assignment (status={self.status})")
        return float(self.values[index])

    def rounded(self, var: Variable) -> int:
        """Integer-rounded value of ``var`` (for 0/1 decision reading)."""
        return int(round(self.value(var)))

    def selected(self, variables) -> list:
        """Return the subset of ``variables`` whose value rounds to one."""
        return [v for v in variables if self.rounded(v) == 1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Solution(status={self.status!r}, objective={self.objective:.6g}, "
            f"nodes={self.stats.nodes_explored}, time={self.stats.wall_time:.3f}s)"
        )
