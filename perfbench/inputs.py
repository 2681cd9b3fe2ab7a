"""Seeded inputs of the three workloads.

Every function here is a pure function of its arguments: the same seed
gives the same instances in the same order, and the program under test
receives only what these functions generate.

The *population* of each workload is fixed and ``--seed`` decides the
order it is visited in (and, for ``serve-mixed``, the arrival times and
which requests are resends).  Drawing fresh instance seeds per run was
measured and rejected: solve times are heavy-tailed (5 ms to 3.7 s on the
default path), so the summed wall of 14 fresh instance seeds of the corpus
families varied with an inter-quartile spread of about a third of its
median, and one explore sweep varied 1.3-3.3 s between explorer seeds.
No run-to-run bound a regression gate could use survives that, while a
fixed population keeps the work identical and leaves only the order,
the arrival pattern and the host as sources of spread.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: The paper's five example designs (scenario family names).
PAPER_FAMILIES: Tuple[str, ...] = (
    "image-pipeline",
    "fir-filter",
    "fft",
    "matrix-multiply",
    "motion-estimation",
)

#: Every board a paper-design scenario can name.
NAMED_BOARDS: Tuple[str, ...] = (
    "hierarchical",
    "virtex-xcv1000",
    "virtex-xcv300",
    "apex-ep20k400e",
    "flex10k-epf10k100",
)

#: Seeded scenario families of the map corpus: the sizes at which the
#: default branch and bound spends between a few milliseconds and seconds.
#: Four instance seeds keep one pass near 10 s on the reference host, so a
#: run repeats the corpus and its percentiles pool three or more samples of
#: every instance (single maps vary by 10-40% between passes there).
CORPUS_FAMILIES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("random", {"structures": 24}),
    ("random", {"structures": 40}),
    ("board-scale", {"segments": 24, "banks": 32}),
    ("board-scale", {"segments": 16, "banks": 16}),
    ("dag-schedule", {"depth": 6, "width": 4}),
    ("hetero-cost", {"tiers": 4, "banks_per_tier": 6}),
)
CORPUS_INSTANCE_SEEDS = range(4)

#: The explore grid: 48 points in chains of 18, 12, 10 and 8.
EXPLORE_SPECS: Tuple[str, ...] = (
    "dag-schedule@depth=3:5,width=2:4,burstiness=0.0|0.5",
    "hetero-cost@tiers=2:4,banks_per_tier=3:6",
    "random@structures=8:24:4,conflict_density=0.5|1.0",
    "board-scale@segments=6:12:2,banks=8|12",
)
EXPLORE_SEEDS = range(10)
EXPLORE_JOBS = 2

#: serve-mixed traffic: Poisson arrivals at a fixed rate, a fixed share of
#: resends, fresh keys drawn from three cost-tiered families whose direct
#: solves all take 4-11 ms.  The workload loads the serve path (batching
#: window, queue, HTTP, router hop, engine, store); solve speed is
#: map-corpus's job.  Heavy-tailed solves were tried and rejected: a
#: served solve costs about 1.8x the direct map plus 28 ms, at
#: random@24 / board-scale 16x16 the fleet saturated (p90 2.3 s), and with
#: lighter mixes of random, dag-schedule and board-scale keys (5-700 ms)
#: p90 swung 122-262 ms between seeds, because a request that shares a
#: batch or queue with one of the slow solves inherits its time.  With
#: uniform solves that delay is uniform too.  At 30 s a run sees 300
#: arrivals; 6 jobs/s (180) spread p90 as widely between seeds (0.25 in
#: ten runs) and 15 jobs/s more (0.27 in six), because the whole fleet
#: runs slower in some stretches of the shared host.
SERVE_RATE_PER_S = 10.0
SERVE_DUPLICATE_SHARE = 0.25
SERVE_RESEND_AGE_S = 2.0
SERVE_LATENCY_LIMIT_MS = 1000.0
SERVE_FAMILIES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("hetero-cost", {"segments": 16}),
    ("hetero-cost", {"segments": 32}),
    ("hetero-cost", {"tiers": 4, "banks_per_tier": 3, "segments": 20}),
)
SERVE_SEED_BASE = 100


@dataclass(frozen=True)
class Instance:
    """One mapping instance: a scaled Table 3 row or a scenario point."""

    family: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}[{inner}]~s{self.seed}"

    def build(self):
        """The ``(design, board)`` pair, built through the public API."""
        if self.family == "table3":
            from repro.bench.designpoints import SCALED_DESIGN_POINTS

            row = dict(self.params)["row"]
            return SCALED_DESIGN_POINTS[row - 1].build(seed=self.seed)
        from repro.explore.scenarios import ScenarioPoint

        return ScenarioPoint(self.family, dict(self.params), self.seed).build()


def _instance(family: str, params: Dict[str, Any], seed: int = 0) -> Instance:
    return Instance(family, tuple(sorted(params.items())), seed)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, so it does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}")


def corpus_population() -> List[Instance]:
    """The 58 instances of ``map-corpus`` in canonical order."""
    population = [_instance("table3", {"row": row}) for row in range(1, 10)]
    population += [
        _instance(family, {"board": board})
        for board in NAMED_BOARDS
        for family in PAPER_FAMILIES
    ]
    population += [
        _instance(family, params, seed)
        for seed in CORPUS_INSTANCE_SEEDS
        for family, params in CORPUS_FAMILIES
    ]
    return population


def map_corpus(seed: int) -> List[Instance]:
    """The corpus in the order the run with ``seed`` maps it."""
    order = corpus_population()
    _rng("map-corpus", seed).shuffle(order)
    return order


@dataclass(frozen=True)
class Sweep:
    """One explorer run: its scenario seed and the order of its sweeps."""

    explorer_seed: int
    specs: Tuple[str, ...]


def explore_plan(seed: int) -> List[Sweep]:
    """One pass of ``explore-sweep``: every explorer seed once.

    The seed orders the sweeps and, inside each, the grid's chains, which
    changes which jobs share a wave and the order they are dispatched in.
    """
    rng = _rng("explore-sweep", seed)
    seeds = list(EXPLORE_SEEDS)
    rng.shuffle(seeds)
    plan = []
    for explorer_seed in seeds:
        specs = list(EXPLORE_SPECS)
        rng.shuffle(specs)
        plan.append(Sweep(explorer_seed, tuple(specs)))
    return plan


def explore_points(sweep: Sweep):
    """Every scenario point of ``sweep`` in chain order."""
    from repro.explore import ScenarioGrid

    grid = ScenarioGrid.parse(list(sweep.specs))
    return [p for chain in grid.chains(seed=sweep.explorer_seed) for p in chain]


@dataclass(frozen=True)
class Arrival:
    """One request of the open-loop schedule."""

    index: int
    due_s: float
    #: Index into :func:`serve_pool`; a resend repeats an earlier entry.
    pool_index: int
    resend: bool


def serve_pool(size: int) -> List[Instance]:
    """``size`` fresh instances, cycling the serve families."""
    return [
        _instance(
            SERVE_FAMILIES[j % len(SERVE_FAMILIES)][0],
            SERVE_FAMILIES[j % len(SERVE_FAMILIES)][1],
            SERVE_SEED_BASE + j // len(SERVE_FAMILIES),
        )
        for j in range(size)
    ]


def serve_schedule(seed: int, seconds: float) -> Tuple[List[Arrival], int]:
    """The arrival schedule and the pool size it draws from.

    The count is fixed at ``rate * seconds`` and the times are uniform
    order statistics over the window: a Poisson process conditioned on its
    count, so goodput is not moved by how many arrivals a seed happens to
    draw.  A resend repeats a uniformly chosen arrival due at least
    :data:`SERVE_RESEND_AGE_S` earlier, so it reads a finished result from
    the store instead of riding an in-flight solve.
    """
    rng = _rng("serve-mixed", seed)
    count = max(2, round(SERVE_RATE_PER_S * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    eligible = [i for i in range(count) if times[i] - times[0] >= SERVE_RESEND_AGE_S]
    resends = set(rng.sample(eligible, min(len(eligible),
                                           round(SERVE_DUPLICATE_SHARE * count))))
    fresh = count - len(resends)
    order = list(range(fresh))
    rng.shuffle(order)
    schedule: List[Arrival] = []
    for index, due in enumerate(times):
        if index in resends:
            older = bisect.bisect_right(times, due - SERVE_RESEND_AGE_S)
            pool_index = schedule[rng.randrange(older)].pool_index
        else:
            pool_index = order.pop()
        schedule.append(Arrival(index, due, pool_index, index in resends))
    return schedule, fresh


def warmup_instances() -> List[Instance]:
    """Cheap instances whose keys no workload request ever reuses."""
    return [
        _instance("image-pipeline", {"width": 40 + 8 * k, "board": "hierarchical"})
        for k in range(12)
    ]
