"""Fresh-process set-up probe: what a user pays before the first result.

Launched by the workloads as ``python3 perfbench/probe.py <workload>``
with ``src`` on ``PYTHONPATH``.  It imports ``repro`` and does the
workload's set-up work, then prints one JSON line, whose arrival the
parent times from the launch.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def main(workload: str) -> int:
    start = time.perf_counter()
    import repro

    report = {"import_s": time.perf_counter() - start}
    if workload == "map-corpus":
        first = time.perf_counter()
        repro.MemoryMapper(repro.hierarchical_board()).map(
            repro.image_pipeline_design()
        )
        report["first_map_s"] = time.perf_counter() - first
    elif workload == "explore-sweep":
        from perfbench.inputs import explore_plan
        from repro.explore import ScenarioGrid

        sweep = explore_plan(0)[0]
        ScenarioGrid.parse(list(sweep.specs)).chains(seed=sweep.explorer_seed)
    else:
        print(f"unknown probe workload {workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
