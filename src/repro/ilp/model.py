"""Mixed 0/1 integer linear programming model container.

A :class:`Model` collects variables, linear constraints, an objective and
optional SOS-1 (special-ordered-set) annotations, and hands the whole thing
to a solver.  It plays the role CPLEX's model object plays in the paper.

The container is deliberately simple: the mapping formulations built by
:mod:`repro.core` only need binary and continuous variables, ``<=``/``>=``/
``==`` constraints and a linear objective.  SOS-1 groups are *not* extra
constraints — they are annotations that the branch-and-bound solver uses to
branch on a whole "pick exactly one" group at once (each data structure's
``Z[d][t]`` row forms such a group), which is dramatically more effective
than branching on individual 0/1 variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ModelError
from .expr import EQ, GE, LE, Constraint, LinExpr, Variable, quicksum

__all__ = ["Model", "SosGroup", "MINIMIZE", "MAXIMIZE"]

MINIMIZE = "min"
MAXIMIZE = "max"

_model_counter = itertools.count()


@dataclass
class SosGroup:
    """A special-ordered-set of type 1: at most one member may be non-zero.

    In the mapping formulations every group also carries an equality
    constraint forcing exactly one member to one (the uniqueness
    constraint); the group annotation itself only drives branching.
    """

    name: str
    members: Tuple[int, ...]
    #: Optional per-member branching priority (larger first).  Unused by the
    #: default strategy but kept for experimentation.
    weights: Tuple[float, ...] = field(default_factory=tuple)


class Model:
    """A mixed 0/1 linear program.

    Parameters
    ----------
    name:
        Label used in log output and solver statistics.
    sense:
        ``"min"`` (default) or ``"max"``.
    """

    def __init__(self, name: str = "model", sense: str = MINIMIZE) -> None:
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ModelError(f"unknown objective sense {sense!r}")
        self.name = name
        self.sense = sense
        self._id = next(_model_counter)
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sos1_groups: List[SosGroup] = []
        #: variable index -> name of the SOS-1 group it belongs to
        self._sos_owner: Dict[int, str] = {}
        self._names: Dict[str, Variable] = {}

    # ------------------------------------------------------------------ vars
    def _add_variable(
        self, name: str, lb: float, ub: float, is_integer: bool
    ) -> Variable:
        if not name:
            name = f"x{len(self.variables)}"
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        var = Variable(
            name,
            index=len(self.variables),
            lb=lb,
            ub=ub,
            is_integer=is_integer,
            model_id=self._id,
        )
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_binary(self, name: str = "") -> Variable:
        """Add a 0/1 decision variable."""
        return self._add_variable(name, 0.0, 1.0, True)

    def add_integer(self, name: str = "", lb: float = 0.0, ub: float = float("inf")) -> Variable:
        """Add a general integer variable with the given bounds."""
        return self._add_variable(name, lb, ub, True)

    def add_continuous(
        self, name: str = "", lb: float = 0.0, ub: float = float("inf")
    ) -> Variable:
        """Add a continuous variable with the given bounds."""
        return self._add_variable(name, lb, ub, False)

    def add_binaries(self, names: Iterable[str]) -> List[Variable]:
        """Add a batch of binary variables; convenience for formulations."""
        return [self.add_binary(name) for name in names]

    def var_by_name(self, name: str) -> Variable:
        try:
            return self._names[name]
        except KeyError:
            raise ModelError(f"no variable named {name!r} in model {self.name!r}")

    # ----------------------------------------------------------- constraints
    def add_constraint(
        self,
        constraint: Union[Constraint, Tuple[LinExpr, str, float]],
        name: str = "",
    ) -> Constraint:
        """Add a constraint built with ``<=``, ``>=`` or ``==`` operators."""
        if isinstance(constraint, tuple):
            expr, sense, rhs = constraint
            constraint = Constraint(expr, sense, rhs)
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a Constraint (did the comparison "
                "collapse to a bool?)"
            )
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint]) -> List[Constraint]:
        return [self.add_constraint(c) for c in constraints]

    # -------------------------------------------------------------- objective
    def set_objective(self, expr: Union[LinExpr, Variable, float], sense: Optional[str] = None) -> None:
        """Set the linear objective (replacing any previous one)."""
        if isinstance(expr, Variable):
            expr = expr.to_expr()
        elif not isinstance(expr, LinExpr):
            expr = LinExpr({}, float(expr))
        self.objective = expr
        if sense is not None:
            if sense not in (MINIMIZE, MAXIMIZE):
                raise ModelError(f"unknown objective sense {sense!r}")
            self.sense = sense

    # ------------------------------------------------------------------- sos
    def add_sos1(
        self,
        variables: Sequence[Variable],
        name: str = "",
        weights: Optional[Sequence[float]] = None,
    ) -> SosGroup:
        """Annotate a group of binaries as a special-ordered-set of type 1.

        Groups are disjoint: a variable may belong to one group only, and
        appear in it once (the solver's flat group layout relies on it).
        """
        name = name or f"sos{len(self.sos1_groups)}"
        members = tuple(var.index for var in variables)
        seen = set()
        for var in variables:
            if not var.is_binary:
                raise ModelError(
                    f"SOS-1 member {var.name!r} is not a binary variable"
                )
            owner = name if var.index in seen else self._sos_owner.get(var.index)
            if owner is not None:
                raise ModelError(
                    f"SOS-1 member {var.name!r} already belongs to group {owner!r}"
                )
            seen.add(var.index)
        group = SosGroup(
            name=name,
            members=members,
            weights=tuple(float(w) for w in weights) if weights else tuple(),
        )
        self.sos1_groups.append(group)
        self._sos_owner.update((index, name) for index in members)
        return group

    # ------------------------------------------------------------- reporting
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_binary(self) -> int:
        return sum(1 for v in self.variables if v.is_binary)

    @property
    def num_integer(self) -> int:
        return sum(1 for v in self.variables if v.is_integer)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_nonzeros(self) -> int:
        """Total number of non-zero constraint coefficients (model density)."""
        return sum(len(c.expr.coeffs) for c in self.constraints)

    def summary(self) -> str:
        """One-line model-size summary used by benchmark logs."""
        return (
            f"{self.name}: {self.num_variables} vars "
            f"({self.num_binary} bin), {self.num_constraints} cons, "
            f"{self.num_nonzeros} nz, {len(self.sos1_groups)} sos1"
        )

    # ------------------------------------------------------------- evaluation
    def objective_value(self, assignment) -> float:
        """Evaluate the objective for a candidate assignment."""
        return self.objective.value(assignment)

    def is_feasible(self, assignment, tol: float = 1e-6) -> bool:
        """Check a candidate assignment against bounds, integrality and rows."""
        for var in self.variables:
            value = float(assignment[var.index])
            if value < var.lb - tol or value > var.ub + tol:
                return False
            if var.is_integer and abs(value - round(value)) > tol:
                return False
        return all(c.is_satisfied(assignment, tol) for c in self.constraints)

    def violated_constraints(self, assignment, tol: float = 1e-6) -> List[Constraint]:
        """Return the constraints violated by a candidate assignment."""
        return [c for c in self.constraints if not c.is_satisfied(assignment, tol)]

    # ------------------------------------------------------------------ solve
    def solve(self, solver=None, **kwargs):
        """Solve the model and return a :class:`repro.ilp.solution.Solution`.

        ``solver`` may be a solver instance (anything with a ``solve(model)``
        method), a backend name accepted by
        :func:`repro.ilp.branch_bound.create_solver`, or ``None`` for the
        default branch-and-bound solver.  Keyword arguments are forwarded to
        the solver constructor when a name or ``None`` is given.
        """
        from .branch_bound import create_solver  # local import to avoid cycle

        if solver is None or isinstance(solver, str):
            solver = create_solver(solver, **kwargs)
        return solver.solve(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Model({self.summary()})"


# Re-export the expression helpers most formulations need so that callers can
# simply ``from repro.ilp.model import Model, quicksum``.
__all__ += ["quicksum", "LE", "GE", "EQ"]
