"""The correctness gate: every outcome against a scipy-milp reference.

The reference maps the same instance with ``solver="scipy-milp"`` (HiGHS'
MILP solver behind the library's model) outside every timed section.  An
objective must match it to 1e-6 relative, and an instance the program
reports infeasible must be infeasible for the reference too.

References depend only on the instance and the source tree, so they are
cached on disk keyed by both (the instance label, which fixes the
instance given the builders, and a digest of every file under ``src/``):
later runs in the same checkout skip the solves, and any change to the
source starts a fresh cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

#: Relative objective tolerance of the gate.
REL_TOL = 1e-6

INFEASIBLE = "infeasible"


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ReferenceCache:
    """Reference objectives (or :data:`INFEASIBLE`) by instance label."""

    def __init__(self, out_dir: Path, src: Path) -> None:
        self.path = out_dir / f"references-{source_digest(src)}.json"
        self.solved = 0
        self._entries: Dict[str, object] = {}
        if self.path.exists():
            try:
                self._entries = json.loads(self.path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                self._entries = {}
        self._dirty = False

    def get(self, key: str, build: Callable[[], Tuple[object, object]]) -> object:
        """The reference of ``key``; ``build()`` gives its (design, board) on a miss."""
        if key not in self._entries:
            self._entries[key] = solve_reference(*build())
            self.solved += 1
            self._dirty = True
        return self._entries[key]

    def save(self) -> None:
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(self._entries, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        self._dirty = False


def solve_reference(design, board) -> object:
    from repro import MappingError, MemoryMapper

    try:
        result = MemoryMapper(board, solver="scipy-milp").map(design)
    except MappingError:
        return INFEASIBLE
    return float(result.global_mapping.objective)


def check(objective: Optional[float], infeasible: bool, reference: object) -> str:
    """``""`` when the outcome agrees with the reference, else the reason."""
    if infeasible:
        if reference == INFEASIBLE:
            return ""
        return f"reported infeasible, reference objective {reference!r}"
    if reference == INFEASIBLE:
        return f"objective {objective!r} on an instance the reference proves infeasible"
    if objective is None:
        return "no objective reported"
    if abs(objective - float(reference)) > REL_TOL * max(abs(float(reference)), 1e-9):
        return f"objective {objective!r} != reference {reference!r}"
    return ""
