"""The repository benchmark: three workloads against the public ``repro`` API.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``BENCHMARK.json`` lists the
workloads and metrics and ``perfbench/DESIGN.md`` records why.  The package
only observes the program from outside: it imports ``repro`` from ``src/``
and never changes it.
"""
