"""Seeded inputs of the three workloads.

Everything a run feeds the program is derived here from ``--seed``: the
workload instances' seed and the service's zipf request sequence.  The
benchmark subsets are fixed, so every seed does the same amount of work
(workload seeds only move random data, never trace lengths).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

#: Seed whose simulated results are pinned in ``golden.json``.
DEFAULT_SEED = 0

# -- fig3-cold ---------------------------------------------------------------

#: Long-run streams (embar, cgm) beside irregular ones (adm, trfd).
FIG3_NAMES = ("embar", "cgm", "adm", "trfd")
FIG3_SCALE = 1.0

# -- l2-match ----------------------------------------------------------------


def l2_pairs() -> Tuple[Tuple[str, float], ...]:
    """Table 4 (benchmark, scale) pairs: a large one and an unmatched one.

    appsp@1.0 is the large pair (388k miss events); cgm@1.0 ends
    unmatched (no L2 up to 4 MB reaches its stream hit rate).
    """
    from repro.workloads import TABLE4_SCALES

    return (
        ("appsp", TABLE4_SCALES["appsp"][1]),
        ("cgm", TABLE4_SCALES["cgm"][0]),
        ("appsp", TABLE4_SCALES["appsp"][0]),
        ("applu", TABLE4_SCALES["applu"][0]),
    )


#: The mechanism-zoo column searched with the analytic screen.
ZOO_COLUMN = "victim:16+streams"

# -- service-zipf ------------------------------------------------------------

SERVICE_NAMES = ("embar", "fftpde", "buk", "appsp", "appbt", "applu", "qcd",
                 "trfd", "mgrid")
SERVICE_SCALE = 0.25
SERVICE_N = tuple(range(1, 11))
# The popularity skew is the repository's recorded one
# (``repro.fleet.loadgen.LoadSpec.zipf_s``).  The stored share, the sweep
# share and size and the round size are chosen, not measured: a "mostly
# /v1/run, some /v1/sweep, a minority computed" mix, with rounds long
# enough for well over ten latency samples beyond p99 in a run.
#: Share of the popularity ranking held in the store before a round.
STORED_SHARE = 0.8
#: Share of requests that are multi-cell sweeps.
SWEEP_SHARE = 0.15
SWEEP_CELLS = 3
#: Requests per server round (a round starts from the pristine store).
ROUND_REQUESTS = 1000
CLIENTS = 2


@dataclass(frozen=True)
class Cell:
    """One service cell: (workload, n_streams, unit filter on/off)."""

    workload: str
    n_streams: int
    filtered: bool

    def config(self):
        from repro.core.config import StreamConfig

        base = StreamConfig.filtered() if self.filtered else StreamConfig.jouppi()
        return base.with_(n_streams=self.n_streams)

    def preset(self) -> str:
        return "filtered" if self.filtered else "jouppi"


def service_cells(seed: int) -> List[Cell]:
    """The cell universe in popularity order (rank 1 first)."""
    cells = [
        Cell(name, n, filtered)
        for name in SERVICE_NAMES
        for n in SERVICE_N
        for filtered in (False, True)
    ]
    random.Random(f"ranking:{seed}").shuffle(cells)
    return cells


def stored_cells(seed: int) -> List[Cell]:
    """Head and body of the ranking: results present in the starting store.

    The split is made per workload (its best-ranked ``STORED_SHARE`` of
    cells are stored), so every seed stores and leaves to compute the
    same amount of each workload's replay work.
    """
    per_workload = int(round(STORED_SHARE * len(SERVICE_N) * 2))
    taken = {name: 0 for name in SERVICE_NAMES}
    stored = []
    for cell in service_cells(seed):
        if taken[cell.workload] < per_workload:
            taken[cell.workload] += 1
            stored.append(cell)
    return stored


def request_stream(seed: int, round_index: int) -> Iterator[Tuple[str, dict, List[Cell]]]:
    """``(path, payload, cells)`` for one round, zipf-popular over cells."""
    from repro.fleet.loadgen import LoadSpec, zipf_weights

    cells = service_cells(seed)
    cum_weights = list(itertools.accumulate(zipf_weights(len(cells), LoadSpec().zipf_s)))
    rng = random.Random(f"requests:{seed}:{round_index}")
    for _ in range(ROUND_REQUESTS):
        cell = rng.choices(cells, cum_weights=cum_weights)[0]
        common = {"scale": SERVICE_SCALE, "seed": seed, "config": {"preset": cell.preset()}}
        if rng.random() < SWEEP_SHARE:
            others = [n for n in SERVICE_N if n != cell.n_streams]
            n_values = sorted([cell.n_streams] + rng.sample(others, SWEEP_CELLS - 1))
            payload = dict(common, workloads=[cell.workload], n_streams=n_values)
            yield "/v1/sweep", payload, [Cell(cell.workload, n, cell.filtered) for n in n_values]
        else:
            common["config"]["n_streams"] = cell.n_streams
            payload = dict(common, workload=cell.workload)
            yield "/v1/run", payload, [cell]


def oracle_sample(seed: int, population: List, k: int) -> List:
    """A seed-chosen sample of ``k`` items re-simulated by the oracles."""
    rng = random.Random(f"oracle:{seed}")
    return rng.sample(list(population), min(k, len(population)))
