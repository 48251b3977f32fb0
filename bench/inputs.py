"""Seeded inputs for the three workloads.

``sweep`` is exhaustive over a fixed range, so it ignores the seed.  The two
query workloads draw weak compositions from a fixed pool by stratified
sampling: the pool is sorted by how many key and lock tableaux each
composition has (a cost proxy that no optimisation can change), cut into
equal-count strata, and the seed picks one composition per stratum.  That
keeps every seed's mix of cheap and expensive items alike, so the run-to-run
spread of ``wall_s`` comes from the machine, not from the draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "pool.txt"

#: The five theorem checks the sweep runs, in ``kohnert verify`` order.  Named
#: here rather than read from ``ALL_CHECKS`` so that a check added later does
#: not silently change the workload.
SWEEP_CHECKS = ("positivity", "intertwine", "connected", "characterize", "agreement")

#: (max_length, max_part, max_size) of the swept range, per size.
SWEEP_RANGES = {"full": (5, 3, 5), "tiny": (3, 2, 3)}

#: Pool bounds for the query workloads: lengths, largest part, largest size.
POOL_LENGTHS = range(4, 8)
POOL_MAX_PART = 4
POOL_MAX_SIZE = 5

#: Compositions drawn per pass, per size.
QUERY_COMPOSITIONS = {"full": 300, "tiny": 3}

#: CLI argument lists per query workload; ``--comp`` is appended per item.
QUERY_COMMANDS = {
    "key_query": (
        ("poly", "--kind", "key", "--format", "json"),
        ("crystal", "--kind", "key"),
    ),
    "lock_query": (
        ("poly", "--kind", "lock", "--format", "json"),
        ("crystal", "--kind", "lock"),
        ("map", "--all", "--format", "json"),
    ),
}

WORKLOADS = ("sweep", "key_query", "lock_query")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class PoolEntry:
    comp: tuple[int, ...]
    kkt: int  # number of key Kohnert tableaux of content comp
    lkt: int  # number of lock Kohnert tableaux of content comp


@dataclass(frozen=True)
class Item:
    """One CLI invocation of a query workload."""

    index: int
    entry: PoolEntry
    argv: tuple[str, ...]


def interleaved(a: tuple[int, ...]) -> bool:
    """At least two nonzero parts with a zero somewhere between them."""
    nonzero = [i for i, p in enumerate(a) if p]
    return len(nonzero) >= 2 and 0 in a[nonzero[0] : nonzero[-1]]


def pool_compositions() -> list[tuple[int, ...]]:
    """Every composition the query pool holds, in generation order."""
    return [
        a
        for length in POOL_LENGTHS
        for a in itertools.product(range(POOL_MAX_PART + 1), repeat=length)
        if sum(a) <= POOL_MAX_SIZE and interleaved(a)
    ]


def load_pool(path: Path = POOL_FILE) -> list[PoolEntry]:
    entries = []
    for line in path.read_text().splitlines():
        comp, kkt, lkt = line.split()
        entries.append(PoolEntry(tuple(int(p) for p in comp.split(",")), int(kkt), int(lkt)))
    return entries


def draw_compositions(pool: list[PoolEntry], count: int, seed: int) -> list[PoolEntry]:
    """One composition from each of ``count`` equal-count strata, seeded."""
    if not 0 < count <= len(pool):
        raise ValueError(f"cannot draw {count} compositions from a pool of {len(pool)}")
    ranked = sorted(pool, key=lambda e: (e.kkt + e.lkt, e.comp))
    rng = random.Random(seed)
    picks = []
    for k in range(count):
        lo, hi = k * len(ranked) // count, (k + 1) * len(ranked) // count
        picks.append(ranked[rng.randrange(lo, hi)])
    rng.shuffle(picks)
    return picks


def query_items(workload: str, seed: int, size: str = "full") -> list[Item]:
    pool = load_pool()
    if size == "tiny":
        pool = [e for e in pool if e.kkt + e.lkt <= 8]
    items = []
    for entry in draw_compositions(pool, QUERY_COMPOSITIONS[size], seed):
        comp = ",".join(str(p) for p in entry.comp)
        for argv in QUERY_COMMANDS[workload]:
            items.append(Item(len(items), entry, argv + ("--comp", comp)))
    return items


def sweep_count(max_length: int, max_part: int, max_size: int, extra) -> int:
    """How many compositions a sweep must test, counted without enumerating.

    Counts weak compositions of each length and size by dynamic programming,
    then adds the extra compositions that fall outside the range.  This is
    independent of ``SweepRange.compositions`` so the two can be compared.
    """
    total = 0
    ways = [1] + [0] * max_size  # ways[s]: compositions of the current length and size s
    for _ in range(max_length + 1):
        total += sum(ways)
        ways = [sum(ways[s - p] for p in range(max_part + 1) if s - p >= 0) for s in range(max_size + 1)]
    outside = {
        tuple(a)
        for a in extra
        if len(a) > max_length or max(a, default=0) > max_part or sum(a) > max_size
    }
    return total + len(outside)
