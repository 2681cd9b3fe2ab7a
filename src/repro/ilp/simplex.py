"""Dense two-phase primal simplex solver for LP relaxations.

This is the pure-Python/NumPy replacement for the LP engine inside CPLEX.
It solves problems given in :class:`repro.ilp.standard_form.StandardForm`::

    minimise    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lb <= x <= ub

Implementation notes
--------------------
* Variables are shifted so their lower bound becomes zero; finite upper
  bounds become explicit ``<=`` rows.  This keeps the tableau logic textbook
  simple at the cost of a few extra rows, which is fine at the model sizes
  produced by the global formulation (hundreds of rows).
* Phase 1 introduces artificial variables for every row whose slack cannot
  serve as an initial basic variable and minimises their sum; phase 2 then
  optimises the true objective starting from the feasible basis.
* Dantzig (most-negative reduced cost) pricing is used by default and the
  solver switches to Bland's rule after a long stall to guarantee
  termination in the presence of degeneracy.
* The tableau is a single dense ``float64`` array and every pivot is one
  vectorised rank-1 update, following the "vectorise the hot loop" guidance
  of the HPC Python guides.

The branch-and-bound solver falls back to this engine when the revised
kernel reports numerical trouble on a node, and runs on it outright under
``lp_backend="simplex"``; the tests use it as the reference LP oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import SolverError
from .solution import INFEASIBLE, OPTIMAL, UNBOUNDED, ERROR, LpResult
from .standard_form import StandardForm

__all__ = ["SimplexOptions", "solve_lp_simplex"]

_EPS = 1e-9


@dataclass
class SimplexOptions:
    """Tuning knobs for the dense simplex."""

    max_iterations: int = 20000
    #: switch from Dantzig to Bland's anti-cycling rule after this many
    #: iterations without objective improvement.
    stall_iterations: int = 200
    tolerance: float = 1e-9


def _prepare(form: StandardForm) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """Shift bounds and assemble the combined constraint system.

    Returns ``(A, b, senses, c, fixed_offset, lower_bounds)`` where ``senses``
    is +1 for ``<=`` rows and 0 for ``==`` rows and ``x_original = x_shifted +
    lower_bounds``.
    """
    n = form.num_variables
    lb = form.lb.copy()
    ub = form.ub.copy()
    if np.any(~np.isfinite(lb)):
        raise SolverError("the simplex backend requires finite lower bounds")

    # Shift: y = x - lb >= 0.
    c = form.c.copy()
    fixed_offset = float(form.c @ lb)

    A_ub = form.A_ub
    b_ub = form.b_ub - (A_ub @ lb if A_ub.size else np.zeros(0))
    A_eq = form.A_eq
    b_eq = form.b_eq - (A_eq @ lb if A_eq.size else np.zeros(0))

    # Finite upper bounds become explicit rows  y_j <= ub_j - lb_j.
    finite_ub = np.where(np.isfinite(ub))[0]
    if finite_ub.size:
        bound_rows = np.zeros((finite_ub.size, n))
        bound_rows[np.arange(finite_ub.size), finite_ub] = 1.0
        bound_rhs = ub[finite_ub] - lb[finite_ub]
        A_ub = np.vstack([A_ub, bound_rows]) if A_ub.size else bound_rows
        b_ub = np.concatenate([b_ub, bound_rhs]) if b_ub.size else bound_rhs

    num_ub = b_ub.shape[0]
    num_eq = b_eq.shape[0]
    A = np.vstack([A_ub, A_eq]) if num_eq else A_ub
    if A.size == 0:
        A = np.zeros((0, n))
    b = np.concatenate([b_ub, b_eq]) if num_eq else b_ub
    senses = np.concatenate([np.ones(num_ub), np.zeros(num_eq)])
    return A, b, senses, c, fixed_offset, lb


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Perform an in-place Gauss-Jordan pivot on ``tableau[row, col]``."""
    pivot_value = tableau[row, col]
    tableau[row, :] /= pivot_value
    # Rank-1 update of every other row (vectorised).
    col_values = tableau[:, col].copy()
    col_values[row] = 0.0
    tableau -= np.outer(col_values, tableau[row, :])


def solve_lp_simplex(
    form: StandardForm,
    options: Optional[SimplexOptions] = None,
) -> LpResult:
    """Solve the LP relaxation of ``form`` (integrality is ignored)."""
    options = options or SimplexOptions()
    tol = options.tolerance

    try:
        A, b, senses, c, fixed_offset, lb = _prepare(form)
    except SolverError:
        raise
    n = form.num_variables
    m = A.shape[0]

    if m == 0:
        # Unconstrained besides bounds: minimise each variable independently.
        x = np.where(c > 0, form.lb, np.where(c < 0, form.ub, form.lb))
        if np.any(~np.isfinite(x)):
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, x=x, objective=float(form.c @ x), iterations=0)

    # Normalise rows so that b >= 0 (flip the row sign where needed).
    flip = b < -tol
    A = A.copy()
    b = b.copy()
    A[flip, :] *= -1.0
    b[flip] *= -1.0
    # '<=' rows that were flipped become '>=' rows: their slack enters with a
    # -1 coefficient and cannot be the initial basic variable.
    slack_sign = np.where(senses > 0, np.where(flip, -1.0, 1.0), 0.0)

    num_slack = int(np.sum(senses > 0))
    slack_cols = {}
    # Columns: [structural (n)] [slacks (num_slack)] [artificials (added below)]
    total_cols = n + num_slack
    rows_needing_artificial = []
    slack_index = 0
    slack_col_of_row = np.full(m, -1, dtype=int)
    for i in range(m):
        if senses[i] > 0:
            slack_col_of_row[i] = n + slack_index
            slack_cols[i] = n + slack_index
            slack_index += 1
            if slack_sign[i] < 0:
                rows_needing_artificial.append(i)
        else:
            rows_needing_artificial.append(i)

    num_art = len(rows_needing_artificial)
    width = total_cols + num_art + 1  # +1 for the RHS column

    # Build the combined tableau: one extra row for the phase objective and
    # one for the real objective (kept up to date through phase 1 pivots).
    tableau = np.zeros((m + 2, width), dtype=np.float64)
    tableau[:m, :n] = A
    for i in range(m):
        if slack_col_of_row[i] >= 0:
            tableau[i, slack_col_of_row[i]] = slack_sign[i]
    art_col_of_row = {}
    for k, i in enumerate(rows_needing_artificial):
        col = total_cols + k
        tableau[i, col] = 1.0
        art_col_of_row[i] = col
    tableau[:m, -1] = b

    obj_row = m          # real objective row
    phase_row = m + 1    # phase-1 objective row
    tableau[obj_row, :n] = c

    basis = np.empty(m, dtype=int)
    for i in range(m):
        if i in art_col_of_row:
            basis[i] = art_col_of_row[i]
        else:
            basis[i] = slack_col_of_row[i]

    # Phase-1 objective: minimise the sum of artificial variables.  Express
    # it in terms of non-basic variables by subtracting the artificial rows.
    if num_art:
        for i in rows_needing_artificial:
            tableau[phase_row, :] -= tableau[i, :]

    iterations = 0

    def run_phase(objective_row: int, allowed_cols: int) -> str:
        nonlocal iterations
        stall = 0
        best_obj = math.inf
        while True:
            if iterations >= options.max_iterations:
                return "iteration_limit"
            reduced = tableau[objective_row, :allowed_cols]
            if stall > options.stall_iterations:
                # Bland's rule: smallest index with negative reduced cost.
                candidates = np.where(reduced < -tol)[0]
                if candidates.size == 0:
                    return "optimal"
                col = int(candidates[0])
            else:
                col = int(np.argmin(reduced))
                if reduced[col] >= -tol:
                    return "optimal"
            # Ratio test.
            column = tableau[:m, col]
            rhs = tableau[:m, -1]
            positive = column > tol
            if not np.any(positive):
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[positive] = rhs[positive] / column[positive]
            row = int(np.argmin(ratios))
            _pivot(tableau, row, col)
            basis[row] = col
            iterations += 1
            current = tableau[objective_row, -1]
            if current < best_obj - tol:
                best_obj = current
                stall = 0
            else:
                stall += 1

    # ---------------------------------------------------------------- phase 1
    if num_art:
        status = run_phase(phase_row, total_cols)
        if status == "iteration_limit":
            return LpResult(ERROR, iterations=iterations)
        # Phase-1 optimum is -(sum of artificials); feasible iff ~0.
        if -tableau[phase_row, -1] > 1e-7:
            return LpResult(INFEASIBLE, iterations=iterations)
        # Drive any artificial variable still in the basis out of it (it must
        # be at value zero); if its row is all zero over real columns the row
        # is redundant and can be left as is.
        for i in range(m):
            if basis[i] >= total_cols:
                row_coeffs = tableau[i, :total_cols]
                pivot_candidates = np.where(np.abs(row_coeffs) > tol)[0]
                if pivot_candidates.size:
                    _pivot(tableau, i, int(pivot_candidates[0]))
                    basis[i] = int(pivot_candidates[0])
        # Artificial columns must not re-enter the basis: phase 2 only prices
        # the first ``total_cols`` columns, and zeroing their objective
        # entries keeps later pivot updates free of stray values.
        tableau[obj_row, total_cols:-1] = 0.0

    # ---------------------------------------------------------------- phase 2
    status = run_phase(obj_row, total_cols)
    if status == "iteration_limit":
        return LpResult(ERROR, iterations=iterations)
    if status == "unbounded":
        return LpResult(UNBOUNDED, iterations=iterations)

    y = np.zeros(total_cols)
    for i in range(m):
        if basis[i] < total_cols:
            y[basis[i]] = tableau[i, -1]
    x = y[:n] + lb
    # Clip fuzz from the pivots back into the bounds (np.clip handles an
    # infinite upper bound, which the previous min/max dance did not).
    x = np.clip(x, form.lb, form.ub)
    objective = float(form.c @ x)
    return LpResult(OPTIMAL, x=x, objective=objective, iterations=iterations)
