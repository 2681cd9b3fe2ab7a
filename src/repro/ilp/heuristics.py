"""Primal heuristics used to seed and accelerate branch-and-bound.

CPLEX relies heavily on primal heuristics to find incumbents early so that
the tree can be pruned aggressively; without an incumbent the complete
formulation of the paper essentially never finishes on a pure-Python tree
search.  Two lightweight heuristics are provided:

* :func:`round_with_sos` — round an LP-relaxation point to a candidate 0/1
  assignment, respecting SOS-1 groups by picking each group's largest
  fractional member.
* :func:`sos_greedy_assignment` — a constructive greedy that walks the SOS-1
  groups (the ``Z[d][t]`` rows of the mapping formulations) and picks, for
  each group, the cheapest member that keeps every ``<=`` constraint
  satisfiable.  This is solver-agnostic: it only looks at the model's
  matrix data, so it doubles as the "greedy mapper" baseline's engine.

Per-node group passes (rounding here, the cutoff filter, the structural
floor and SOS branching in :mod:`repro.ilp.branch_bound`) work on a
:class:`SosLayout`: every group's members concatenated into one flat
array, so a pass over all groups is a few ``reduceat`` calls instead of a
Python loop per group.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .model import Model
from .standard_form import StandardForm

__all__ = ["SosLayout", "round_with_sos", "sos_greedy_assignment"]


class SosLayout:
    """Disjoint SOS-1 groups as one flat segment layout, built once per solve.

    ``flat`` concatenates the members of every non-empty group,
    ``starts`` holds each segment's first position (the offsets
    ``np.ufunc.reduceat`` takes), ``segment`` the group id of every flat
    position and ``cost`` the objective coefficients ``c[flat]``.
    ``groups`` keeps the per-group index arrays for callers that walk
    groups one at a time (SOS branching, dives, LNS).

    Minima, maxima and logical reductions run through ``reduceat``.  Sums
    go through :meth:`group_sums`, which adds each group exactly as
    ``np.sum`` of its own slice would, so a vectorised pass rounds the
    same way a per-group loop does and branching, pruning and fathoming
    decisions taken on those sums do not move.
    """

    def __init__(self, groups: Sequence[Sequence[int]], c: np.ndarray) -> None:
        c = np.asarray(c, dtype=np.float64)
        self.groups: List[np.ndarray] = [
            members
            for members in (np.asarray(g, dtype=np.int64) for g in groups)
            if members.size
        ]
        sizes = np.array([g.size for g in self.groups], dtype=np.int64)
        self.flat = (
            np.concatenate(self.groups) if self.groups else np.zeros(0, dtype=np.int64)
        )
        self.starts = np.cumsum(sizes) - sizes
        self.segment = np.repeat(np.arange(sizes.size), sizes)
        self.cost = c[self.flat]
        self.in_group = np.zeros(c.size, dtype=bool)
        self.in_group[self.flat] = True
        # Same-size groups as one (groups x size) block of flat positions:
        # a row sum of a block is bit-identical to ``np.sum`` of each row,
        # which ``np.add.reduceat`` (first member + the rest) is not.
        self._blocks = []
        for size in sorted(set(sizes.tolist())):
            ids = np.flatnonzero(sizes == size)
            self._blocks.append((ids, self.starts[ids][:, None] + np.arange(size)))

    def __len__(self) -> int:
        return len(self.groups)

    def group_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums of ``values`` (one entry per flat position)."""
        sums = np.empty(len(self))
        for ids, positions in self._blocks:
            sums[ids] = values[positions].sum(axis=1)
        return sums

    def group_minima(self, lb: np.ndarray, ub: np.ndarray) -> Optional[np.ndarray]:
        """Least cost each exactly-one group adds inside the box ``[lb, ub]``.

        A group pays for its forced members (``lb > 0.5``) when it has
        any, otherwise for its cheapest selectable one (``ub > 0.5``).
        ``None`` when some group has no selectable member left.  The
        forced sum adds zeros in place of the other members, which equals
        the sum over the forced members alone for groups of fewer than
        eight members, or with at most two forced ones; more than one
        forced member already makes the box infeasible for the group.
        """
        if not len(self):
            return np.zeros(0)
        selectable = ub[self.flat] > 0.5
        if not np.logical_or.reduceat(selectable, self.starts).all():
            return None
        forced = selectable & (lb[self.flat] > 0.5)
        paid = self.group_sums(np.where(forced, self.cost, 0.0))
        cheapest = np.minimum.reduceat(
            np.where(selectable, self.cost, np.inf), self.starts
        )
        return np.where(np.logical_or.reduceat(forced, self.starts), paid, cheapest)


def round_with_sos(
    model: Model,
    form: StandardForm,
    x_frac: np.ndarray,
    tol: float = 1e-6,
    layout: Optional[SosLayout] = None,
) -> Optional[np.ndarray]:
    """Round a fractional LP point to a feasible integer point, if possible.

    SOS-1 groups are rounded to their largest-value member (ties broken by
    lowest objective coefficient); remaining integer variables are rounded
    to the nearest integer within bounds.  Returns ``None`` when the rounded
    point violates any constraint.  ``layout`` is the model's groups over
    ``form.c``; callers that round many points pass it to build it once.
    """
    if layout is None:
        layout = SosLayout([g.members for g in model.sos1_groups], form.c)
    x = np.asarray(x_frac, dtype=float).copy()
    if len(layout):
        flat = layout.flat
        values = x[flat]
        # Only members whose bounds still allow a one may win the group:
        # branch-and-bound fixes forbidden candidates to zero via ``ub``.
        allowed = form.ub[flat] >= 0.5
        forced = form.lb[flat] > 0.5
        # One stable sort ranks each group's members: forced ones first in
        # member order; then allowed ones by largest value, then smallest
        # objective coefficient (a cheap incumbent), then member order.
        order = np.lexsort((
            np.where(forced, 0.0, layout.cost),
            np.where(forced, 0.0, -values),
            ~(allowed | forced),
            ~forced,
            layout.segment,
        ))
        first = order[layout.starts]
        wins = forced[first] | (allowed[first] & (values[first] > tol))
        x[flat] = 0.0
        x[flat[first[wins]]] = 1.0

    integer_mask = form.integrality & ~layout.in_group
    x[integer_mask] = np.clip(
        np.round(x[integer_mask]), form.lb[integer_mask], form.ub[integer_mask]
    )

    if model.is_feasible(x, tol=1e-6):
        return x
    return None


def sos_greedy_assignment(
    model: Model,
    form: StandardForm,
    rng: Optional[np.random.Generator] = None,
) -> Optional[np.ndarray]:
    """Constructive greedy incumbent for assignment-structured 0/1 models.

    The heuristic assumes (and checks) that every binary variable belongs to
    at most one SOS-1 group and that groups must select exactly one member
    (which is how the mapping formulations are written).  Groups are
    processed in decreasing order of their tightest resource demand so that
    "large" data structures are placed while there is still room; members
    are tried in increasing objective-coefficient order.

    Returns a feasible 0/1 vector or ``None`` when the greedy gets stuck
    (which simply means branch-and-bound starts without an incumbent).
    """
    if not model.sos1_groups:
        return None

    n = form.num_variables
    x = np.zeros(n, dtype=float)

    # Remaining slack of every <= row (x starts at zero); equality rows
    # other than the group uniqueness rows are not supported by the greedy
    # and cause a bail-out.  Everything below works off the sparse
    # matrices — the greedy must not be the one consumer that forces a
    # dense rows-x-columns materialisation.
    slack = form.b_ub.astype(np.float64).copy()
    group_member_set = set()
    for group in model.sos1_groups:
        group_member_set.update(group.members)
    for i in range(form.num_eq_rows):
        support, _ = form.A_eq_sparse.row_entries(i)
        if not set(int(j) for j in support) <= group_member_set:
            return None

    # Per-column max |coefficient| over the <= rows, computed sparsely.
    column_pressure = np.zeros(n)
    if form.A_ub_sparse.nnz:
        np.maximum.at(
            column_pressure, form.A_ub_sparse.indices, np.abs(form.A_ub_sparse.data)
        )

    # Order groups: largest maximum column demand first (place big items early).
    def group_pressure(group) -> float:
        members = np.asarray(group.members, dtype=int)
        return float(column_pressure[members].max()) if members.size else 0.0

    groups = sorted(model.sos1_groups, key=group_pressure, reverse=True)
    if rng is not None:
        # Optional tie-breaking noise for randomised restarts.
        groups = sorted(
            groups, key=lambda g: group_pressure(g) + rng.uniform(0.0, 1e-6), reverse=True
        )

    for group in groups:
        forced = [idx for idx in group.members if form.lb[idx] > 0.5]
        if forced:
            members = forced  # a fixed-to-one member leaves no choice
        else:
            # Tie-break equal costs on the variable *name* (stable across
            # presolve/column permutations) so greedy incumbents — and the
            # fast-mode fingerprints derived from them — are reproducible
            # regardless of model construction order or --jobs scheduling.
            members = sorted(
                (idx for idx in group.members if form.ub[idx] >= 0.5),
                key=lambda idx: (form.c[idx], model.variables[idx].name),
            )
        placed = False
        for idx in members:
            if form.A_ub_sparse.nnz:
                column = form.A_ub_sparse.column(idx)
                if np.all(column <= slack + 1e-9):
                    slack = slack - column
                    x[idx] = 1.0
                    placed = True
                    break
            else:
                x[idx] = 1.0
                placed = True
                break
        if not placed:
            return None

    if model.is_feasible(x, tol=1e-6):
        return x
    return None
