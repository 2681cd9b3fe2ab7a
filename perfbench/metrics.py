"""Metric names, units and the result line, all taken from ``BENCHMARK.json``.

A workload may only report a name ``BENCHMARK.json`` declares, so the
printed report and the file cannot drift apart.  The last line of standard
output is the result object: the end-to-end metrics of an untraced run, or
the per-layer metrics of a traced one.  A per-layer metric of a layer the
workload never enters is reported as 0 and listed as not exercised.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec(path: Path = SPEC_PATH) -> Dict[str, object]:
    return json.loads(path.read_text(encoding="utf-8"))


class Report:
    """The metrics one run measured."""

    def __init__(self, spec: Optional[Dict[str, object]] = None) -> None:
        spec = spec if spec is not None else load_spec()
        self.end_to_end = [m["name"] for m in spec["end_to_end"]]
        self.per_layer = [m["name"] for m in spec["per_layer"]]
        self.units: Dict[str, str] = {
            m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
        }
        self.values: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}

    def set(self, name: str, value: float, note: str = "") -> None:
        if name not in self.units:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        self.values[name] = value
        if note:
            self.notes[name] = note

    def rescale(self, name: str, factor: float) -> None:
        """Multiply a measured value by ``factor``, keeping the raw one in its note."""
        raw = self.values[name]
        self.set(name, raw * factor)
        note = self.notes.get(name)
        self.notes[name] = f"{note}; " if note else ""
        self.notes[name] += f"as measured {raw:.6g}"

    def update(self, values: Dict[str, float]) -> None:
        for name, value in values.items():
            self.set(name, value)

    def lines(self) -> List[str]:
        """Human-readable report: every measured metric with its unit."""
        out = []
        for name in self.end_to_end + self.per_layer:
            if name in self.values:
                note = f"  ({self.notes[name]})" if name in self.notes else ""
                out.append(f"  {name:32s} {self.values[name]:14.6g} {self.units[name]}{note}")
        return out

    def result(self, trace: bool, correct: bool, attempted: int, failed: int) -> Dict:
        names = self.per_layer if trace else self.end_to_end
        if not trace:
            missing = [name for name in names if name not in self.values]
            if missing:
                raise KeyError(f"end-to-end metrics not measured: {missing}")
        metrics = {
            name: {"value": self.values.get(name, 0.0), "unit": self.units[name]}
            for name in names
        }
        return {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }

    def not_exercised(self) -> List[str]:
        return [name for name in self.per_layer if name not in self.values]
