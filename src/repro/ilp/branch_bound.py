"""Best-first branch-and-bound solver for mixed 0/1 linear programs.

This is the reproduction's stand-in for CPLEX's MIP engine.  A solve now
runs as a three-stage path:

1. **standard form** — the model is converted (or fetched from the
   :class:`~repro.ilp.context.SolveContext` cache) into the sparse
   :class:`~repro.ilp.standard_form.StandardForm`; caller-supplied
   variable fixings (``fix_zero``, how forbidden (structure, type) pairs
   arrive from the mapping pipeline) are applied as root bounds;
2. **presolve** — :func:`repro.ilp.presolve.presolve` fixes forced
   variables, tightens bounds and drops empty/redundant rows, producing a
   reduced problem plus a postsolve map back to the full space (often it
   solves the whole model outright on retry solves);
3. **branch and bound** — the classic LP-relaxation loop over the
   *reduced* form: solve the node relaxation with the pure-Python
   revised simplex of :mod:`repro.ilp.revised_simplex` (dual warm
   re-solves from the parent's basis), prune against the incumbent,
   accept integral relaxations, branch otherwise.  Should the revised
   kernel report numerical trouble on a node, that node is re-solved
   once with the dense tableau of :mod:`repro.ilp.simplex`.

Branching follows the model:

* **SOS-1 branching** when the model declares SOS-1 groups: pick the
  group with the most fractional LP mass and create one child per
  member.  The mapping formulations declare one group per data
  structure, so a single decision settles a whole assignment row.
* **Pseudo-cost variable branching** otherwise (and when no group is
  fractional): two-way splits steered by the objective degradation
  observed per unit of fractionality.  The statistics live in the
  :class:`SolveContext`, so the pipeline's forbidden-pair retries keep
  learning across solves instead of starting cold each time.

Primal heuristics from :mod:`repro.ilp.heuristics` seed the incumbent at
the root and try to round every node relaxation; warm starts arrive
either explicitly (``warm_start``) or through the context's previous
incumbent.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .context import SolveContext
from .errors import ModelError
from .heuristics import SosLayout, round_with_sos, sos_greedy_assignment
from .model import Model
from .presolve import Postsolve, presolve as run_presolve, propagate_bounds
from .revised_simplex import BasisState, RevisedOptions, RevisedSimplex
# Not called here any more; importable from this module because the
# traced benchmark run (perfbench/map_corpus.py) wraps them by these names.
from .diving import dive, rins_dive  # noqa: F401
from .lns import lns_search  # noqa: F401
from .scipy_backend import solve_lp_highs  # noqa: F401
from .simplex import solve_lp_simplex
from .solution import (
    ERROR,
    FEASIBLE,
    INFEASIBLE,
    NODE_LIMIT,
    OPTIMAL,
    TIMEOUT,
    UNBOUNDED,
    LpResult,
    Solution,
    SolveStats,
)
from .standard_form import StandardForm

__all__ = ["BranchAndBoundSolver", "BnBOptions", "create_solver"]


@dataclass
class BnBOptions:
    """Tuning parameters for :class:`BranchAndBoundSolver`."""

    time_limit: Optional[float] = None
    node_limit: Optional[int] = None
    rel_gap: float = 1e-6
    abs_gap: float = 1e-9
    integrality_tol: float = 1e-6
    #: run the presolve reductions before the tree search.
    presolve: bool = True
    #: run bound propagation at every node: infeasible children are pruned
    #: and fully-fixed children fathomed without spending an LP solve.
    node_presolve: bool = True
    #: filter every node against the objective cutoff ``c.x <= incumbent -
    #: abs_gap`` using SOS-aware interval bounds: candidates too expensive
    #: for the incumbent are removed (and hopeless nodes pruned) before
    #: any LP is solved.  This is what turns a good warm start — e.g. a
    #: chained incumbent from an adjacent design point — into fewer LP
    #: solves rather than just a head start.
    objective_cutoff: bool = True
    #: variable indices forced to zero at the root (the pipeline's
    #: forbidden (structure, type) pairs arrive here as in-model fixings).
    fix_zero: Optional[Sequence[int]] = None
    #: cross-solve state (cached standard form, pseudo-costs, previous
    #: incumbent); created per-solve when the caller does not supply one.
    context: Optional[SolveContext] = None
    #: run the greedy SOS heuristic at the root to obtain an incumbent.
    root_heuristic: bool = True
    #: stop with status "feasible" once the incumbent objective is within
    #: this relative gap of the best bound — the ``--fast`` contract:
    #: ``objective <= bound * (1 + gap_limit)``.  ``None`` (default)
    #: solves to proved optimality.
    gap_limit: Optional[float] = None
    #: optional warm-start assignment (indexed by variable index).
    warm_start: Optional[np.ndarray] = None
    #: per-solve options of the revised simplex LP kernel.
    revised_options: Optional[RevisedOptions] = None
    #: thread the parent node's optimal basis into child re-solves (the
    #: revised kernel's dual-simplex warm start); fingerprints must be
    #: identical with this off — it only changes solver effort.
    reuse_basis: bool = True


def structural_floor(
    layout: SosLayout, form: StandardForm, lb: np.ndarray, ub: np.ndarray
) -> Tuple[float, Optional[np.ndarray]]:
    """Valid lower bound on ``c.x + offset`` over the box ``[lb, ub]``, no LP.

    Every exactly-one group of ``layout`` contributes its
    :meth:`~repro.ilp.heuristics.SosLayout.group_minima`, every other
    column its interval minimum.  Returns ``(floor, minima)``, or
    ``(inf, None)`` when some group has no selectable member left.  The
    group terms are added one at a time in group order, so prune
    decisions taken on the floor do not depend on how it is vectorised.
    """
    minima = layout.group_minima(lb, ub)
    if minima is None:
        return math.inf, None
    c = form.c
    base = float(np.where(c >= 0, c * lb, c * ub)[~layout.in_group].sum())
    total = float(np.add.accumulate(np.concatenate(([base], minima)))[-1])
    return total + form.objective_offset, minima


def apply_objective_cutoff(
    layout: SosLayout,
    form: StandardForm,
    cutoff: float,
    lb: np.ndarray,
    ub: np.ndarray,
    integrality_tol: float,
    counts: Dict[str, Any],
) -> Tuple[bool, np.ndarray, np.ndarray]:
    """Filter a node's box against ``c.x <= cutoff``.

    Uses the same exactly-one group semantics SOS branching relies on:
    the :func:`structural_floor` of the box.  Group members whose
    selection alone would bust the cutoff are removed, free integers are
    narrowed to the span the slack allows, and boxes whose floor already
    exceeds the cutoff are pruned — all without an LP solve.  Prunes and
    fixings are tallied in ``counts``.  Returns ``(feasible, lb, ub)``;
    the input arrays come back as they are when nothing was tightened.
    """
    base, minima = structural_floor(layout, form, lb, ub)
    if minima is None:
        return False, lb, ub
    if not math.isfinite(base):
        # Unbounded-below contributions (free variables) poison the
        # floor; the filter has nothing sound to say — skip it.
        return True, lb, ub
    if base > cutoff + 1e-12:
        counts["objective_cutoff_prunes"] = counts.get("objective_cutoff_prunes", 0) + 1
        return False, lb, ub
    slack = cutoff - base
    new_lb, new_ub = lb, ub
    flat = layout.flat
    open_members = (ub[flat] > 0.5) & (lb[flat] < 0.5)
    too_dear = flat[open_members & (layout.cost - minima[layout.segment] > slack + 1e-9)]
    if too_dear.size:
        new_lb, new_ub = lb.copy(), ub.copy()
        new_ub[too_dear] = 0.0
        counts["objective_cutoff_fixings"] = (
            counts.get("objective_cutoff_fixings", 0) + int(too_dear.size)
        )
    free = np.flatnonzero(form.integrality & ~layout.in_group)
    c = form.c[free]
    width = ub[free] - lb[free]
    wide = ~((width <= integrality_tol) | (np.abs(c) * width <= slack + 1e-9))
    if wide.any():
        free, c = free[wide], c[wide]
        span = np.floor(slack / np.abs(c) + integrality_tol)
        if new_ub is ub:
            new_lb, new_ub = lb.copy(), ub.copy()
        up, down = c >= 0, c < 0
        new_ub[free[up]] = np.minimum(ub[free[up]], lb[free[up]] + span[up])
        new_lb[free[down]] = np.maximum(lb[free[down]], ub[free[down]] - span[down])
        if np.any(new_ub[free] < new_lb[free] - integrality_tol):
            return False, lb, ub
    return True, new_lb, new_ub


@dataclass(order=True)
class _Node:
    """A subproblem in the search tree, ordered by its relaxation bound."""

    bound: float
    sequence: int = field(compare=True)
    lb: np.ndarray = field(compare=False, default=None)
    ub: np.ndarray = field(compare=False, default=None)
    depth: int = field(compare=False, default=0)
    #: pseudo-cost bookkeeping: which branch created this node.
    branch_name: Optional[str] = field(compare=False, default=None)
    branch_dir: str = field(compare=False, default="")
    branch_frac: float = field(compare=False, default=0.0)
    parent_bound: float = field(compare=False, default=-math.inf)
    #: parent's optimal basis (revised kernel): dual-simplex warm start.
    basis: Optional[BasisState] = field(compare=False, default=None)


class BranchAndBoundSolver:
    """LP-based branch-and-bound for the models built by :mod:`repro.core`."""

    def __init__(self, **options) -> None:
        self.options = BnBOptions(**options)

    # ------------------------------------------------------------------ LP
    def _solve_relaxation(
        self,
        form: StandardForm,
        stats: SolveStats,
        basis: Optional[BasisState] = None,
    ) -> LpResult:
        stats.lp_solves += 1
        engine = self._revised_engine(form)
        result = engine.solve(form.lb, form.ub, basis=basis)
        stats.refactorizations += result.refactorizations
        for trigger, count in result.refactor_triggers.items():
            stats.refactor_triggers[trigger] = (
                stats.refactor_triggers.get(trigger, 0) + count
            )
        if result.status == ERROR:
            # Numerical trouble in the revised kernel: one dense
            # tableau solve as a safety net for this node.  The
            # discarded attempt's work is still accounted (its own
            # LP solve and iterations), but it does not count as a
            # basis reuse — its result was thrown away.
            stats.simplex_iterations += result.iterations
            stats.lp_solves += 1
            result = solve_lp_simplex(form)
        else:
            if result.basis_reused:
                stats.basis_reuses += 1
            if result.warm:
                stats.warm_lp_solves += 1
        stats.simplex_iterations += result.iterations
        return result

    def _revised_engine(self, form: StandardForm) -> RevisedSimplex:
        """One engine per (matrices, costs) triple, shared by all nodes."""
        engine = self._engine
        if engine is None or not engine.matches(form):
            engine = RevisedSimplex(form, self._revised_options)
            self._engine = engine
        return engine

    # ------------------------------------------------------------ branching
    def _select_sos_group(
        self,
        layout: SosLayout,
        x: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Pick the SOS-1 group whose LP values are the most fractional.

        Groups already fully decided on this branch are skipped; the first
        group with the largest score wins, and only a score above the
        integrality tolerance counts.
        """
        tol = self.options.integrality_tol
        if not len(layout):
            return None
        flat = layout.flat
        values = x[flat]
        scores = layout.group_sums(np.minimum(values, 1.0 - values))
        undecided = np.logical_or.reduceat(ub[flat] - lb[flat] >= tol, layout.starts)
        scores[~undecided] = -math.inf
        best = int(np.argmax(scores))
        if not scores[best] > tol:
            return None
        members = layout.groups[best]
        return members, x[members]

    def _branch_sos(
        self,
        members: np.ndarray,
        values: np.ndarray,
        node: _Node,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Create one child per selectable group member (fix it to one)."""
        children: List[Tuple[np.ndarray, np.ndarray]] = []
        order = np.argsort(-values)  # most promising member first
        for position in order:
            idx = members[int(position)]
            if node.ub[idx] < 0.5:  # member already excluded on this branch
                continue
            lb = node.lb.copy()
            ub = node.ub.copy()
            lb[members] = 0.0
            ub[members] = 0.0
            lb[idx] = 1.0
            ub[idx] = 1.0
            children.append((lb, ub))
        return children

    def _branch_variable(
        self,
        form: StandardForm,
        x: np.ndarray,
        node: _Node,
        context: SolveContext,
    ) -> List[Tuple[np.ndarray, np.ndarray, str, str, float]]:
        """Two-way branch on the best pseudo-cost fractional variable.

        Returns ``(lb, ub, name, direction, fractionality)`` per child so
        the node loop can update the pseudo-cost statistics once the
        child's relaxation is solved.
        """
        frac = np.abs(x - np.round(x))
        frac[~form.integrality] = 0.0
        # Only consider variables not yet fixed on this branch.
        frac[node.ub - node.lb < self.options.integrality_tol] = 0.0
        candidates = np.where(frac > self.options.integrality_tol)[0]
        if candidates.size == 0:
            return []
        default = context.average_unit_gain()
        best_idx = -1
        best_score = -1.0
        for j in candidates:
            name = form.variable_names[j] if form.variable_names else str(j)
            f_down = float(x[j] - math.floor(x[j]))
            f_up = float(math.ceil(x[j]) - x[j])
            entry = context.pseudocosts.get(name)
            if entry is None:
                down = up = default
            else:
                down = entry.estimate("down", default)
                up = entry.estimate("up", default)
            # Product rule with an epsilon floor (standard practice: it
            # favours variables whose both children degrade the bound).
            score = max(down * f_down, 1e-9) * max(up * f_up, 1e-9)
            if score > best_score + 1e-15:
                best_score = score
                best_idx = int(j)
        idx = best_idx
        value = x[idx]
        name = form.variable_names[idx] if form.variable_names else str(idx)
        low_lb, low_ub = node.lb.copy(), node.ub.copy()
        low_ub[idx] = math.floor(value)
        high_lb, high_ub = node.lb.copy(), node.ub.copy()
        high_lb[idx] = math.ceil(value)
        f_down = float(value - math.floor(value))
        f_up = float(math.ceil(value) - value)
        return [
            (low_lb, low_ub, name, "down", f_down),
            (high_lb, high_ub, name, "up", f_up),
        ]

    # ---------------------------------------------------------------- solve
    def solve(self, model: Model) -> Solution:
        options = self.options
        start = time.perf_counter()
        stats = SolveStats()
        context = options.context if options.context is not None else SolveContext()

        stats.backend = "bnb+revised"
        self._revised_options = options.revised_options or RevisedOptions()
        self._engine: Optional[RevisedSimplex] = None

        form = context.standard_form(model)
        names = {i: n for i, n in enumerate(form.variable_names)}
        n = form.num_variables

        def internal_objective(x: np.ndarray) -> float:
            return float(form.c @ x) + form.objective_offset

        root_basis_holder: List[Optional[BasisState]] = [None]

        def finish(status: str, incumbent, incumbent_obj, best_bound) -> Solution:
            stats.wall_time = time.perf_counter() - start
            stats.best_bound = (
                form.objective_scale * best_bound if math.isfinite(best_bound) else best_bound
            )
            if root_basis_holder[0] is not None:
                # Remember the root relaxation's optimal basis: the next
                # solve under this context (a Section 4.1 retry, or a
                # warm-chained sweep point) starts its root LP from it.
                context.note_basis(root_basis_holder[0])
            context.record(stats)
            if incumbent is not None and math.isfinite(incumbent_obj):
                context.note_incumbent(incumbent)
                user_obj = form.objective_scale * incumbent_obj
                if options.gap_limit is not None and math.isfinite(best_bound):
                    # Fast-mode contract semantics: certify the incumbent
                    # against the lower bound (obj <= bound * (1 + gap)).
                    stats.gap = max(0.0, incumbent_obj - best_bound) / max(
                        abs(best_bound), 1e-9
                    )
                else:
                    denom = max(1.0, abs(incumbent_obj))
                    stats.gap = abs(incumbent_obj - best_bound) / denom
                return Solution(
                    status=status,
                    objective=user_obj,
                    values=incumbent,
                    stats=stats,
                    variable_names=names,
                )
            return Solution(status=status, stats=stats, variable_names=names)

        # ------------------------------------------------------------ root bounds
        root_lb = form.lb.copy()
        root_ub = form.ub.copy()
        if options.fix_zero:
            fixed = np.asarray(sorted(set(int(i) for i in options.fix_zero)), dtype=int)
            if fixed.size:
                if np.any(fixed < 0) or np.any(fixed >= n):
                    raise ModelError("fix_zero index outside the model")
                if np.any(root_lb[fixed] > 0.5):
                    return finish(INFEASIBLE, None, math.inf, -math.inf)
                root_lb[fixed] = 0.0
                root_ub[fixed] = 0.0
        root_form = form.with_bounds(root_lb, root_ub)

        def admissible(candidate: np.ndarray) -> bool:
            """Feasible for the model *and* the root fixings."""
            tol = options.integrality_tol
            if np.any(candidate < root_lb - tol) or np.any(candidate > root_ub + tol):
                return False
            return model.is_feasible(candidate)

        # --------------------------------------------------------------- presolve
        post = Postsolve(
            kept=np.arange(n), fixed_values=np.zeros(n), column_map=np.arange(n)
        )
        rform = root_form
        if options.presolve:
            reduction = run_presolve(
                root_form, integrality_tol=options.integrality_tol
            )
            stats.presolve = reduction.stats.as_dict()
            if reduction.status == INFEASIBLE:
                return finish(INFEASIBLE, None, math.inf, -math.inf)
            if reduction.status == UNBOUNDED:
                return finish(UNBOUNDED, None, math.inf, -math.inf)
            post = reduction.postsolve
            rform = reduction.form
            if reduction.solved:
                candidate = post.restore(None)
                if admissible(candidate):
                    obj = internal_objective(candidate)
                    stats.incumbent_updates += 1
                    return finish(OPTIMAL, candidate, obj, obj)
                # The reductions were consistent but the fixings violate a
                # constraint presolve could not see; report infeasible.
                return finish(INFEASIBLE, None, math.inf, -math.inf)

        column_map = post.column_map
        reduced_groups: List[Tuple[int, ...]] = []
        for group in model.sos1_groups:
            mapped = tuple(
                int(column_map[m]) for m in group.members if column_map[m] >= 0
            )
            if len(mapped) >= 2:
                reduced_groups.append(mapped)

        # ------------------------------------------------- objective cutoff
        # The reduced (exactly-one) SOS groups as one flat layout: what
        # the cutoff filter, the structural floor and SOS branching read
        # at every node.
        layout = SosLayout(reduced_groups, rform.c)

        # ------------------------------------------------------------ warm start
        incumbent: Optional[np.ndarray] = None
        incumbent_obj = math.inf

        def try_incumbent(candidate: Optional[np.ndarray], *, warm: bool = False) -> None:
            nonlocal incumbent, incumbent_obj
            if candidate is None:
                return
            candidate = np.asarray(candidate, dtype=float)
            obj = internal_objective(candidate)
            if obj < incumbent_obj - options.abs_gap and admissible(candidate):
                incumbent = candidate
                incumbent_obj = obj
                stats.incumbent_updates += 1
                if warm:
                    context.warm_start_hits += 1

        if options.warm_start is not None:
            candidate = np.asarray(options.warm_start, dtype=float)
            if candidate.shape[0] != n:
                raise ModelError("warm_start length does not match the model")
            try_incumbent(candidate, warm=True)
        if context.warm_values is not None and context.warm_values.shape[0] == n:
            try_incumbent(context.warm_values, warm=True)
        if options.root_heuristic and model.sos1_groups:
            # Run even when a warm start was installed: the greedy point is
            # computed on *this* solve's root bounds (forbidden pairs etc.),
            # so it can beat a repaired or chained incumbent — and a better
            # incumbent means more objective-cutoff pruning below.
            try_incumbent(sos_greedy_assignment(model, root_form))

        # ---------------------------------------------------- gap contract
        def meets_gap(obj: float, bound: float) -> bool:
            """True when ``obj`` certifies against ``bound`` within the limit."""
            return (
                options.gap_limit is not None
                and math.isfinite(obj)
                and math.isfinite(bound)
                and obj - bound <= options.gap_limit * max(abs(bound), 1e-9) + 1e-12
            )

        if options.gap_limit is not None and incumbent is not None:
            # Fast lane: a warm/greedy incumbent that already certifies
            # against the structural floor returns before any LP is built.
            floor, _ = structural_floor(layout, rform, rform.lb, rform.ub)
            if meets_gap(incumbent_obj, floor):
                return finish(FEASIBLE, incumbent, incumbent_obj, floor)

        # ------------------------------------------------------------ root node
        root_basis: Optional[BasisState] = None
        if options.reuse_basis and context.warm_basis is not None:
            # A previous solve's root basis (retry loop / chained sweep);
            # the kernel validates dimensions and silently cold-starts on
            # a mismatch, so this is best-effort by construction.
            root_basis = context.warm_basis
        root = _Node(bound=-math.inf, sequence=0,
                     lb=rform.lb.copy(), ub=rform.ub.copy(),
                     basis=root_basis)
        counter = itertools.count(1)
        queue: List[_Node] = [root]
        best_bound = -math.inf

        integrality_tol = options.integrality_tol
        rounding_layout = SosLayout(
            [group.members for group in model.sos1_groups], root_form.c
        )

        while queue:
            if options.time_limit is not None and time.perf_counter() - start > options.time_limit:
                return finish(TIMEOUT, incumbent, incumbent_obj, best_bound)
            if options.node_limit is not None and stats.nodes_explored >= options.node_limit:
                return finish(NODE_LIMIT, incumbent, incumbent_obj, best_bound)

            node = heapq.heappop(queue)
            # Best-first: the node bound is a global lower bound once popped.
            if math.isfinite(node.bound):
                best_bound = node.bound
            if incumbent is not None and meets_gap(incumbent_obj, best_bound):
                # Fast-mode contract met: the incumbent certifies against
                # the best open bound, stop without proving optimality.
                return finish(FEASIBLE, incumbent, incumbent_obj, best_bound)
            if node.bound >= incumbent_obj - options.abs_gap:
                stats.nodes_pruned += 1
                continue

            stats.nodes_explored += 1
            node_lb, node_ub = node.lb, node.ub
            if options.node_presolve:
                feasible, node_lb, node_ub = propagate_bounds(
                    rform, node.lb, node.ub, integrality_tol
                )
                if not feasible:
                    stats.nodes_pruned += 1
                    stats.extra["propagation_prunes"] = (
                        stats.extra.get("propagation_prunes", 0) + 1
                    )
                    continue
                if bool(np.all(node_ub - node_lb <= integrality_tol)):
                    # Propagation fixed every variable: evaluate the point
                    # directly instead of solving a trivial LP.
                    reduced = node_lb.copy()
                    reduced[rform.integrality] = np.round(
                        reduced[rform.integrality]
                    )
                    stats.extra["nodes_fathomed_without_lp"] = (
                        stats.extra.get("nodes_fathomed_without_lp", 0) + 1
                    )
                    try_incumbent(post.restore(reduced))
                    continue
                # Children must inherit the tightened box.
                node.lb, node.ub = node_lb, node_ub
            if options.objective_cutoff and incumbent is not None:
                feasible, node_lb, node_ub = apply_objective_cutoff(
                    layout, rform, incumbent_obj - options.abs_gap,
                    node_lb, node_ub, integrality_tol, stats.extra,
                )
                if not feasible:
                    stats.nodes_pruned += 1
                    continue
                if bool(np.all(node_ub - node_lb <= integrality_tol)):
                    reduced = node_lb.copy()
                    reduced[rform.integrality] = np.round(
                        reduced[rform.integrality]
                    )
                    stats.extra["nodes_fathomed_without_lp"] = (
                        stats.extra.get("nodes_fathomed_without_lp", 0) + 1
                    )
                    try_incumbent(post.restore(reduced))
                    continue
                node.lb, node.ub = node_lb, node_ub
            node_form = rform.with_bounds(node_lb, node_ub)
            relaxation = self._solve_relaxation(
                node_form, stats, basis=node.basis if options.reuse_basis else None
            )

            if relaxation.status == INFEASIBLE:
                stats.nodes_pruned += 1
                continue
            if relaxation.status == UNBOUNDED:
                if node.depth == 0:
                    return finish(UNBOUNDED, None, math.inf, -math.inf)
                stats.nodes_pruned += 1
                continue
            if relaxation.status != OPTIMAL:
                return finish(ERROR, incumbent, incumbent_obj, best_bound)

            x = relaxation.x
            if node.depth == 0 and relaxation.basis is not None:
                root_basis_holder[0] = relaxation.basis
            bound = relaxation.objective + rform.objective_offset
            if node.branch_name is not None and math.isfinite(node.parent_bound):
                context.pseudocost(node.branch_name).update(
                    node.branch_dir,
                    (bound - node.parent_bound) / max(node.branch_frac, 1e-6),
                )
            if node.depth == 0:
                best_bound = bound
            if bound >= incumbent_obj - options.abs_gap:
                stats.nodes_pruned += 1
                continue

            frac = np.abs(x - np.round(x))
            is_integral = bool(np.all(frac[rform.integrality] <= integrality_tol))
            if is_integral:
                reduced = x.copy()
                reduced[rform.integrality] = np.round(reduced[rform.integrality])
                try_incumbent(post.restore(reduced))
                continue

            try_incumbent(round_with_sos(
                model, root_form, post.restore(x), layout=rounding_layout
            ))

            # Check the optimality gap against the best open bound.
            if incumbent is not None and math.isfinite(bound):
                denom = max(1.0, abs(incumbent_obj))
                if (incumbent_obj - bound) / denom <= options.rel_gap:
                    continue

            children: List[Tuple] = []
            sos_children: List[Tuple[np.ndarray, np.ndarray]] = []
            if reduced_groups:
                selection = self._select_sos_group(layout, x, node.lb, node.ub)
                if selection is not None:
                    members, values = selection
                    sos_children = self._branch_sos(members, values, node)
            if sos_children:
                children = [
                    (lb, ub, None, "", 0.0) for lb, ub in sos_children
                ]
            else:
                children = self._branch_variable(rform, x, node, context)
            if not children:
                # Numerically integral but missed by the tolerance test above.
                continue
            child_basis = relaxation.basis if options.reuse_basis else None
            reduced_costs = relaxation.reduced_costs
            for child_lb, child_ub, child_name, child_dir, child_frac in children:
                child_bound = bound
                if options.objective_cutoff and incumbent is not None:
                    # Push-time pruning: the structural floor of the child
                    # box (cheapest selectable member per group + interval
                    # minima) is a valid bound, so a child that cannot beat
                    # the incumbent is discarded before it ever costs a
                    # node.  This is where a good incumbent pays off
                    # twice — it prunes at the pop *and* at the push.
                    floor, _ = structural_floor(layout, rform, child_lb, child_ub)
                    if floor > child_bound:
                        child_bound = floor
                    if reduced_costs is not None:
                        # Reduced-cost penalty (Driebeek): with the parent's
                        # dual prices (y, d), any x in the child box obeys
                        # c.x >= y.b + sum(d+ * lb') + sum(d- * ub'), i.e.
                        # the parent bound lifts by d+ per raised lower
                        # bound and -d- per lowered upper bound.  A small
                        # slop absorbs complementarity noise at tolerance
                        # level so the lift stays a valid bound.
                        raised = child_lb > node_lb
                        lowered = child_ub < node_ub
                        lift = 0.0
                        if bool(raised.any()):
                            d = reduced_costs[raised]
                            lift += float(
                                (np.maximum(d, 0.0)
                                 * (child_lb[raised] - node_lb[raised])).sum()
                            )
                        if bool(lowered.any()):
                            d = reduced_costs[lowered]
                            lift += float(
                                (np.maximum(-d, 0.0)
                                 * (node_ub[lowered] - child_ub[lowered])).sum()
                            )
                        lift -= 1e-6 * (1.0 + abs(bound))
                        if lift > 0 and bound + lift > child_bound:
                            child_bound = bound + lift
                    if child_bound >= incumbent_obj - options.abs_gap:
                        stats.nodes_pruned += 1
                        stats.extra["push_floor_prunes"] = (
                            stats.extra.get("push_floor_prunes", 0) + 1
                        )
                        continue
                heapq.heappush(
                    queue,
                    _Node(
                        bound=child_bound,
                        sequence=next(counter),
                        lb=child_lb,
                        ub=child_ub,
                        depth=node.depth + 1,
                        branch_name=child_name,
                        branch_dir=child_dir,
                        branch_frac=child_frac,
                        parent_bound=bound,
                        basis=child_basis,
                    ),
                )

        if incumbent is None:
            return finish(INFEASIBLE, None, math.inf, best_bound)
        # The queue is exhausted: the incumbent is optimal.
        return finish(OPTIMAL, incumbent, incumbent_obj, incumbent_obj)


def create_solver(name: Optional[str] = None, **kwargs):
    """Factory mapping a backend name to a solver instance.

    Thin compatibility wrapper over the pluggable registry of
    :mod:`repro.ilp.backends`: all historic names (``None``/``"auto"``,
    ``"bnb"``, ``"bnb-pure"``, ``"scipy-milp"``, ...) resolve through
    :func:`repro.ilp.backends.create_backend`.
    """
    from .backends import create_backend  # local import to avoid a cycle

    return create_backend(name, **kwargs)
