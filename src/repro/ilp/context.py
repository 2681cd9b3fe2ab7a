"""Cross-solve state shared by the pipeline's retry loop.

The Section 4.1 flow re-runs the global ILP whenever detailed packing
fails.  Those re-solves are near-identical — same design, same board, one
extra forbidden ``(structure, type)`` pair — so everything learned in
retry ``N-1`` is still true in retry ``N``:

* the :class:`~repro.ilp.standard_form.StandardForm` of the (unchanging)
  model can be cached instead of rebuilt,
* the previous incumbent is a strong warm start after a tiny repair,
* pseudo-cost branching statistics keep steering the tree search.

:class:`SolveContext` carries exactly that state.  It is created per
pipeline run, threaded through :class:`repro.core.GlobalMapper` into the
branch-and-bound solver, and aggregated into the solve statistics that
``MappingResult`` / ``repro map --json`` report.  Contexts serialise to
plain dictionaries (:meth:`as_dict` / :meth:`from_dict`) so their
aggregate can cross process boundaries with the batch engine's job
results.

Pseudo-costs are keyed by *variable name*, not index: names are stable
across retries (the model is reused, forbidden pairs arrive as bound
fixings), and they stay meaningful even if a future model rebuild
renumbers columns.

Name-keyed state is also what makes contexts *chainable across adjacent
design points*: a sweep that changes one knob at a time (the
``repro.explore`` subsystem) keeps most structure and bank-type names
stable from one point to the next, so the previous point's incumbent
assignment and branching statistics remain useful seeds even though the
models differ.  :meth:`SolveContext.chain_dict` exports exactly that
transferable subset and :meth:`SolveContext.from_chain_dict` rebuilds a
context from it; model-specific state (the cached standard form, the
full-space warm-start vector, the counters) never crosses the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from .revised_simplex import BasisState
from .standard_form import StandardForm, to_standard_form

__all__ = ["PseudoCost", "SolveContext"]


@dataclass
class PseudoCost:
    """Per-variable branching history: objective gain per unit fractionality."""

    down_sum: float = 0.0
    down_count: int = 0
    up_sum: float = 0.0
    up_count: int = 0

    def update(self, direction: str, unit_gain: float) -> None:
        unit_gain = max(0.0, float(unit_gain))
        if direction == "down":
            self.down_sum += unit_gain
            self.down_count += 1
        else:
            self.up_sum += unit_gain
            self.up_count += 1

    def estimate(self, direction: str, default: float) -> float:
        if direction == "down":
            return self.down_sum / self.down_count if self.down_count else default
        return self.up_sum / self.up_count if self.up_count else default

    @property
    def observations(self) -> int:
        return self.down_count + self.up_count

    def as_dict(self) -> Dict[str, float]:
        return {
            "down_sum": self.down_sum,
            "down_count": self.down_count,
            "up_sum": self.up_sum,
            "up_count": self.up_count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PseudoCost":
        return cls(
            down_sum=float(data.get("down_sum", 0.0)),
            down_count=int(data.get("down_count", 0)),
            up_sum=float(data.get("up_sum", 0.0)),
            up_count=int(data.get("up_count", 0)),
        )


class SolveContext:
    """Carries warm-start state and statistics across repeated solves."""

    def __init__(self) -> None:
        self.pseudocosts: Dict[str, PseudoCost] = {}
        #: full-space incumbent of the most recent successful solve
        self.warm_values: Optional[np.ndarray] = None
        #: name-keyed incumbent (``structure -> bank type``) of the most
        #: recent successful solve; unlike :attr:`warm_values` this is
        #: meaningful for a *different* model too, which is what lets the
        #: explore subsystem chain adjacent design points together.
        self.seed_assignment: Optional[Dict[str, str]] = None
        #: root-relaxation basis of the most recent revised-kernel solve;
        #: the next solve's root LP dual-warm-starts from it (validated
        #: against the new form's dimensions by the kernel itself).
        self.warm_basis: Optional[BasisState] = None
        # ---- aggregate counters over every solve run under this context
        self.solves: int = 0
        self.total_lp_solves: int = 0
        self.total_nodes: int = 0
        self.total_simplex_iterations: int = 0
        self.total_warm_lp_solves: int = 0
        self.total_basis_reuses: int = 0
        self.total_refactorizations: int = 0
        self.total_heuristic_incumbents: int = 0
        self.presolve_rows_dropped: int = 0
        self.presolve_cols_fixed: int = 0
        self.warm_start_hits: int = 0
        self.form_reuses: int = 0
        self._form_cache: Tuple[Optional[object], Optional[StandardForm]] = (None, None)

    # ------------------------------------------------------------ form cache
    def standard_form(self, model) -> StandardForm:
        """``to_standard_form(model)``, cached across retries.

        Keyed by object identity — the retry loop reuses one Model — and
        verified with an ``is`` check against the strong reference held
        here, so a recycled ``id()`` can never alias a dead model.
        """
        cached_model, cached_form = self._form_cache
        if cached_model is model and cached_form is not None:
            self.form_reuses += 1
            return cached_form
        form = to_standard_form(model)
        self._form_cache = (model, form)
        return form

    # ------------------------------------------------------------ pseudo-cost
    def pseudocost(self, name: str) -> PseudoCost:
        entry = self.pseudocosts.get(name)
        if entry is None:
            entry = PseudoCost()
            self.pseudocosts[name] = entry
        return entry

    def average_unit_gain(self) -> float:
        """Mean observed unit gain, used to initialise unseen variables."""
        total = 0.0
        count = 0
        for entry in self.pseudocosts.values():
            total += entry.down_sum + entry.up_sum
            count += entry.observations
        return total / count if count else 1.0

    # -------------------------------------------------------------- incumbent
    def note_incumbent(self, values: Optional[np.ndarray]) -> None:
        """Remember the solve's incumbent as the next retry's warm start."""
        if values is not None:
            self.warm_values = np.asarray(values, dtype=np.float64).copy()

    def note_assignment(self, assignment: Optional[Mapping[str, str]]) -> None:
        """Remember the solve's assignment as the next *chained* solve's seed."""
        if assignment:
            self.seed_assignment = dict(assignment)

    def note_basis(self, basis: Optional[BasisState]) -> None:
        """Remember a solve's root basis as the next solve's warm start."""
        if basis is not None:
            self.warm_basis = basis.copy()

    # ------------------------------------------------------------- statistics
    def record(self, stats) -> None:
        """Fold one solve's :class:`~repro.ilp.solution.SolveStats` in."""
        self.solves += 1
        self.total_lp_solves += stats.lp_solves
        self.total_nodes += stats.nodes_explored
        self.total_simplex_iterations += stats.simplex_iterations
        self.total_warm_lp_solves += getattr(stats, "warm_lp_solves", 0)
        self.total_basis_reuses += getattr(stats, "basis_reuses", 0)
        self.total_refactorizations += getattr(stats, "refactorizations", 0)
        self.total_heuristic_incumbents += getattr(stats, "heuristic_incumbents", 0)
        pres = stats.presolve or {}
        self.presolve_rows_dropped += int(pres.get("rows_dropped_ub", 0))
        self.presolve_rows_dropped += int(pres.get("rows_dropped_eq", 0))
        self.presolve_cols_fixed += int(pres.get("cols_fixed", 0))

    def summary(self) -> Dict[str, Any]:
        """Aggregate counters (what pipeline results and artifacts surface)."""
        return {
            "solves": self.solves,
            "lp_solves": self.total_lp_solves,
            "nodes": self.total_nodes,
            "simplex_iterations": self.total_simplex_iterations,
            "warm_lp_solves": self.total_warm_lp_solves,
            "basis_reuses": self.total_basis_reuses,
            "refactorizations": self.total_refactorizations,
            "heuristic_incumbents": self.total_heuristic_incumbents,
            "presolve_rows_dropped": self.presolve_rows_dropped,
            "presolve_cols_fixed": self.presolve_cols_fixed,
            "warm_start_hits": self.warm_start_hits,
            "form_reuses": self.form_reuses,
        }

    # ------------------------------------------------------------ round trip
    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (crosses process boundaries with job results)."""
        return {
            "kind": "solve_context",
            "summary": self.summary(),
            "pseudocosts": {k: v.as_dict() for k, v in self.pseudocosts.items()},
            "warm_values": (
                None if self.warm_values is None else self.warm_values.tolist()
            ),
            "seed_assignment": (
                None if self.seed_assignment is None else dict(self.seed_assignment)
            ),
            "warm_basis": (
                None if self.warm_basis is None else self.warm_basis.as_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveContext":
        ctx = cls()
        summary = data.get("summary") or {}
        ctx.solves = int(summary.get("solves", 0))
        ctx.total_lp_solves = int(summary.get("lp_solves", 0))
        ctx.total_nodes = int(summary.get("nodes", 0))
        ctx.total_simplex_iterations = int(summary.get("simplex_iterations", 0))
        ctx.total_warm_lp_solves = int(summary.get("warm_lp_solves", 0))
        ctx.total_basis_reuses = int(summary.get("basis_reuses", 0))
        ctx.total_refactorizations = int(summary.get("refactorizations", 0))
        ctx.total_heuristic_incumbents = int(summary.get("heuristic_incumbents", 0))
        ctx.presolve_rows_dropped = int(summary.get("presolve_rows_dropped", 0))
        ctx.presolve_cols_fixed = int(summary.get("presolve_cols_fixed", 0))
        ctx.warm_start_hits = int(summary.get("warm_start_hits", 0))
        ctx.form_reuses = int(summary.get("form_reuses", 0))
        ctx.pseudocosts = {
            k: PseudoCost.from_dict(v)
            for k, v in (data.get("pseudocosts") or {}).items()
        }
        warm = data.get("warm_values")
        ctx.warm_values = None if warm is None else np.asarray(warm, dtype=np.float64)
        seed = data.get("seed_assignment")
        ctx.seed_assignment = None if seed is None else dict(seed)
        basis = data.get("warm_basis")
        ctx.warm_basis = None if basis is None else BasisState.from_dict(basis)
        return ctx

    # ---------------------------------------------------------------- chaining
    def chain_dict(self) -> Dict[str, Any]:
        """The name-keyed state transferable to an *adjacent* model's solve.

        This is the explore subsystem's chaining hook: the previous design
        point's incumbent assignment (by structure/type name) plus the
        pseudo-cost branching statistics (by variable name).  Everything
        tied to this context's concrete model — the cached standard form,
        the full-space warm-start vector, the counters — is deliberately
        left behind.
        """
        return {
            "kind": "solve_context_chain",
            "pseudocosts": {k: v.as_dict() for k, v in self.pseudocosts.items()},
            "seed_assignment": (
                None if self.seed_assignment is None else dict(self.seed_assignment)
            ),
            # The root basis crosses the chain too: adjacent design
            # points frequently share the exact model shape, and the
            # kernel validates dimensions before reusing it (a mismatch
            # silently cold-starts, so a stale basis can never mislead).
            "warm_basis": (
                None if self.warm_basis is None else self.warm_basis.as_dict()
            ),
        }

    @classmethod
    def from_chain_dict(cls, data: Mapping[str, Any]) -> "SolveContext":
        """Fresh context seeded with a previous point's :meth:`chain_dict`."""
        ctx = cls()
        ctx.pseudocosts = {
            k: PseudoCost.from_dict(v)
            for k, v in (data.get("pseudocosts") or {}).items()
        }
        seed = data.get("seed_assignment")
        ctx.seed_assignment = None if seed is None else dict(seed)
        basis = data.get("warm_basis")
        ctx.warm_basis = None if basis is None else BasisState.from_dict(basis)
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SolveContext(solves={self.solves}, lp_solves={self.total_lp_solves}, "
            f"pseudocosts={len(self.pseudocosts)})"
        )
