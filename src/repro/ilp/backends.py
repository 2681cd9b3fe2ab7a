"""Pluggable solver-backend registry.

The seed dispatched solver names through an ad-hoc ``if``-chain in
:func:`repro.ilp.branch_bound.create_solver`.  This module replaces that
with a small registry in the style of mainstream solver frontends: every
backend is described by a :class:`BackendInfo` record (factory, option
schema, capability tags, aliases, availability probe) and instantiated
through :func:`create_backend`.  The public contract of a backend is the
:class:`SolverBackend` protocol — anything with a ``solve(model)`` method
returning a :class:`repro.ilp.solution.Solution`.

Built-in backends registered on import:

``bnb-pure`` (the default; aliases ``bnb``, ``branch-and-bound``, ...)
    The from-scratch best-first branch-and-bound solver with SOS-1
    branching (:class:`repro.ilp.branch_bound.BranchAndBoundSolver`) on
    the pure-Python revised simplex — zero third-party dependencies
    beyond NumPy.
``scipy-milp``
    The HiGHS branch-and-cut MILP behind ``scipy.optimize.milp``; an
    optional reference that needs SciPy.

Unknown option names are *filtered* against each backend's declared
schema rather than rejected, so heterogeneous backends can be swapped
freely under a shared option dictionary (the engine and benchmarks rely
on this to pass ``time_limit`` everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .errors import ModelError, SolverError
from .model import Model
from .scipy_backend import ScipyMilpSolver, highs_available
from .solution import Solution

try:  # pragma: no cover - typing fallback for very old interpreters
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore

    def runtime_checkable(cls):  # type: ignore
        return cls

__all__ = [
    "SolverBackend",
    "BackendInfo",
    "register_backend",
    "resolve_backend",
    "create_backend",
    "list_backends",
    "backend_names",
    "DEFAULT_BACKEND",
]

#: Canonical name used when the caller passes ``None`` or ``"auto"``.
DEFAULT_BACKEND = "bnb-pure"


@runtime_checkable
class SolverBackend(Protocol):
    """Structural interface every registered solver satisfies."""

    def solve(self, model: Model) -> Solution:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class BackendInfo:
    """Registry record describing one solver backend."""

    name: str
    factory: Callable[..., SolverBackend]
    description: str
    #: Capability tags ("milp", "sos1-branching", "pure-python", ...) used
    #: by callers to pick a backend and by ``repro backends`` for display.
    capabilities: frozenset
    #: Accepted constructor options (name -> one-line description).  Options
    #: outside the schema are dropped by :func:`create_backend`.
    options: Mapping[str, str] = field(default_factory=dict)
    aliases: Tuple[str, ...] = ()
    #: Availability probe; ``None`` means always available.
    requires: Optional[Callable[[], bool]] = None

    @property
    def available(self) -> bool:
        return self.requires is None or bool(self.requires())

    def create(self, **options) -> SolverBackend:
        """Instantiate the backend, filtering options to the schema."""
        accepted = {k: v for k, v in options.items() if k in self.options}
        return self.factory(**accepted)


_REGISTRY: Dict[str, BackendInfo] = {}
_ALIASES: Dict[str, str] = {}


def register_backend(info: BackendInfo) -> BackendInfo:
    """Add a backend to the registry (its aliases must be unclaimed)."""
    for key in (info.name,) + info.aliases:
        owner = _ALIASES.get(key)
        if owner is not None and owner != info.name:
            raise ModelError(
                f"backend name {key!r} is already registered by {owner!r}"
            )
    _REGISTRY[info.name] = info
    _ALIASES[info.name] = info.name
    for alias in info.aliases:
        _ALIASES[alias] = info.name
    return info


def backend_names() -> List[str]:
    """Canonical names of all registered backends (sorted)."""
    return sorted(_REGISTRY)


def list_backends() -> List[BackendInfo]:
    """All registered backends, sorted by canonical name."""
    return [_REGISTRY[name] for name in backend_names()]


def resolve_backend(name: Optional[str]) -> BackendInfo:
    """Resolve a (possibly aliased) backend name to its registry record."""
    if name is None or name == "auto":
        name = DEFAULT_BACKEND
    canonical = _ALIASES.get(name)
    if canonical is None:
        raise ModelError(f"unknown solver backend {name!r}")
    return _REGISTRY[canonical]


def create_backend(name: Optional[str] = None, **options) -> SolverBackend:
    """Instantiate a registered backend by (aliased) name.

    This is the engine behind :func:`repro.ilp.create_solver`; the old
    string names (``"auto"``, ``"bnb"``, ``"scipy-milp"``, ...) keep
    resolving unchanged.  Options not in the backend's schema are ignored
    so a single option dictionary can drive heterogeneous backends.
    """
    info = resolve_backend(name)
    if not info.available:
        raise SolverError(
            f"solver backend {info.name!r} is not available in this "
            "environment (missing optional dependency)"
        )
    return info.create(**options)


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------

_BNB_OPTIONS: Dict[str, str] = {
    "lp_backend": "LP relaxation kernel: revised or simplex",
    "simplex_options": "SimplexOptions for the dense tableau kernel",
    "revised_options": "RevisedOptions for the revised simplex kernel",
    "lp_pricing": "revised-kernel pricing rule: dantzig or devex",
    "lp_factorization": "revised-kernel basis representation: auto, dense or lu",
    "reuse_basis": "dual-simplex warm starts from the parent node's basis",
    "branching": "branching strategy: auto, sos1 or variable",
    "time_limit": "wall-clock limit in seconds",
    "node_limit": "maximum number of branch-and-bound nodes",
    "rel_gap": "relative optimality gap",
    "abs_gap": "absolute optimality gap",
    "integrality_tol": "integrality tolerance",
    "root_heuristic": "seed the incumbent with the greedy SOS heuristic",
    "heuristics": "primal heuristic portfolio: auto, root or off",
    "heuristic_freq": "re-run a cheap dive every N explored nodes (0 = root only)",
    "heuristic_seed": "seed of the LNS destroy/repair schedule",
    "gap_limit": "stop once the incumbent is within this relative gap (fast mode)",
    "node_rounding": "try rounding every node relaxation",
    "warm_start": "initial incumbent assignment (variable-indexed vector)",
    "presolve": "run the presolve reductions before the tree search",
    "node_presolve": "bound propagation at every node (prunes without LP)",
    "objective_cutoff": "per-node incumbent-cutoff filtering (prunes without LP)",
    "fix_zero": "variable indices forced to zero at the root",
    "context": "SolveContext carrying warm starts and pseudo-costs",
    "log": "print per-node progress",
}


def _bnb_factory(**options):
    from .branch_bound import BranchAndBoundSolver

    return BranchAndBoundSolver(**options)


def _register_builtin_backends() -> None:
    register_backend(BackendInfo(
        name="bnb-pure",
        factory=_bnb_factory,
        description="best-first branch-and-bound with SOS-1 branching on "
                    "the pure-Python revised simplex with dual warm "
                    "re-solves (no dependency beyond NumPy)",
        capabilities=frozenset({"milp", "sos1-branching", "warm-start",
                                "basis-reuse", "time-limit", "node-limit",
                                "pure-python"}),
        options=_BNB_OPTIONS,
        aliases=("bnb", "branch-and-bound", "pure", "simplex"),
    ))
    register_backend(BackendInfo(
        name="scipy-milp",
        factory=ScipyMilpSolver,
        description="HiGHS branch-and-cut via scipy.optimize.milp",
        capabilities=frozenset({"milp", "time-limit", "requires-scipy"}),
        options={
            "time_limit": "wall-clock limit in seconds",
            "rel_gap": "relative optimality gap",
            "fix_zero": "variable indices forced to zero",
        },
        aliases=("scipy", "highs-milp"),
        requires=highs_available,
    ))


_register_builtin_backends()
