"""Theorem-level checks swept over composition ranges, with witnesses.

Each check is a function of one composition that returns the first failing
witness, or None when its statement holds there.  ``run_checks`` runs every
composition in range through each named check and gathers one report per
check.  A report with no failures means the swept statement held everywhere.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    MAX_CELLS,
    Composition,
    TheoremViolation,
    _check_parts,
    flatten,
    padded_weight,
    weight,
)
from .crystal import crystal_graph, is_connected
from .poly import (
    classify_symmetry,
    is_monomial_positive,
    is_quasisymmetric,
    is_symmetric,
    key_polynomial,
    lock_polynomial,
    schur_polynomial,
    subtract,
)
from .tableaux import (
    enumerate_tableaux,
    lock_source_tableau,
    truncate_below,
    validate_kkt,
    validate_lkt,
)
from .unlock import rectify_walk, schedule_groups, unlock_map

#: The most compositions a sweep range may hold; ``_sweep`` raises ValueError
#: past it, after its MAX_CELLS tests of length and size, before listing any.
#: A full ``verify`` costs about 5 ms and 0.1 MB per composition at 3,906
#: (length <= 5, parts <= 4: 20 s and 375 MB; 2 vCPUs, Python 3.11.7) and more
#: on larger ranges, so this keeps one under half a gigabyte and a minute; the
#: default range holds 341 and the benchmark's 392.
MAX_SWEEP = 4_000

#: Larger shapes swept in addition to the range; they exercise multi-swap
#: unlock walks, early-stopping lock raises, and interleaved zero parts.
SPOT_COMPOSITIONS: tuple[Composition, ...] = (
    (1, 0, 3, 0, 3, 2),
    (0, 3, 4),
    (1, 0, 2, 1),
    (0, 3, 2),
    (0, 2, 3),
)


@dataclass(frozen=True)
class SweepRange:
    """All weak compositions with bounded length and part size."""

    max_length: int
    max_part: int
    max_size: int | None = None

    def __post_init__(self) -> None:
        # a bound that is not an int would fail inside range(), or sweep a bool as
        # 0 or 1; a negative one leaves nothing to sweep, and an empty sweep must not pass
        bounds = {"max length": self.max_length, "max part": self.max_part}
        if self.max_size is not None:
            bounds["max size"] = self.max_size
        *named, last = (f"{name} {value!r}" for name, value in bounds.items())
        got = f"{', '.join(named)} and {last}"
        if any(type(value) is not int for value in bounds.values()):
            raise ValueError(f"sweep bounds must be integers, got {got}")
        if min(bounds.values()) < 0:
            raise ValueError(f"sweep bounds must be nonnegative, got {got}")

    def count(self) -> int:
        """How many compositions ``compositions`` yields, in closed form."""
        n, p, s = self.max_length, self.max_part, self.max_size
        if s is None or s >= n * p:  # no size cap in effect: (p + 1)^l of each length l
            return n + 1 if p == 0 else ((p + 1) ** (n + 1) - 1) // p
        # inclusion-exclusion over j parts above p, summed over lengths 0..n:
        # sum_l C(l, j) C(t + l, l) = C(t + j, j) C(t + n + 1, t + j + 1)
        total = 0
        for j in range(s // (p + 1) + 1):
            t = s - j * (p + 1)
            total += (-1) ** j * comb(t + j, j) * comb(t + n + 1, t + j + 1)
        return total

    def compositions(self) -> Iterator[Composition]:
        """Shortest first, lexicographic within a length.  Each length extends
        the last by a part of at most the size left, so listing costs what it lists."""
        p = self.max_part
        size = self.max_length * p if self.max_size is None else self.max_size
        level = [()]
        yield from level
        for _ in range(self.max_length):
            level = [a + (x,) for a in level for x in range(min(p, size - sum(a)) + 1)]
            yield from level


DEFAULT_RANGE = SweepRange(max_length=4, max_part=3)


@dataclass(frozen=True)
class VerificationReport:
    check: str
    compositions_tested: int
    failures: tuple[tuple[Composition, str], ...]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "compositions_tested": self.compositions_tested,
            "failures": [
                {"composition": list(a), "witness": w} for a, w in self.failures
            ],
            "elapsed_s": self.elapsed_s,
        }


def _sweep(
    rng: SweepRange, extra: Sequence[Composition]
) -> list[Composition]:
    """``rng``'s compositions, then ``extra``'s not among them.  The one admission
    of a sweep: ValueError, before any composition is listed, past the range's
    length or size limit, for an extra composition that ``_check_parts`` refuses
    or that is past the same limits, and past the count limit of the two together."""
    n, p, s = rng.max_length, rng.max_part, rng.max_size
    if n > MAX_CELLS:  # the size test below passes any length at max part 0
        raise ValueError(f"sweep length {n} (max-len) exceeds the limit of {MAX_CELLS} parts")
    # the largest composition's size: length * part, unless max_size caps it lower
    cells, bound = n * p, "max-len * max-part"
    if s is not None and s < cells:
        cells, bound = s, "max size"
    if cells > MAX_CELLS:
        raise ValueError(f"sweep size {cells} ({bound}) exceeds the limit of {MAX_CELLS} cells")
    for a in extra:
        _check_parts(a)
        if len(a) > MAX_CELLS:
            raise ValueError(
                f"extra composition length {len(a)} exceeds the limit of {MAX_CELLS} parts"
            )
        if sum(a) > MAX_CELLS:
            raise ValueError(
                f"extra composition size {sum(a)} exceeds the limit of {MAX_CELLS} cells"
            )
    # the range holds a composition iff its length, parts and size are in bounds
    new = [
        a for a in dict.fromkeys(extra)
        if len(a) > n or max(a, default=0) > p or (s is not None and sum(a) > s)
    ]
    count = rng.count() + len(new)
    if count > MAX_SWEEP:
        size = "" if s is None else f", size <= {s}"
        added = f" with {len(new)} extra compositions" if new else ""
        raise ValueError(
            f"the sweep range (length <= {n}, parts <= {p}{size}){added} holds {count} "
            f"compositions, which exceeds the limit of {MAX_SWEEP} compositions"
        )
    return [*rng.compositions(), *new]


def check_positivity(a: Composition) -> str | None:
    """Key minus lock is monomial positive, each polynomial is the
    generating polynomial of its family's tableaux, every enumerated key
    tableau passes ``validate_kkt`` and every enumerated lock tableau
    ``validate_lkt``, and exactly one lock tableau has weight flatten(a):
    the one ``lock_source_tableau`` builds.

    For keys the second statement is Kohnert's theorem, checked against the
    Demazure operators that compute the key polynomial; for locks it checks
    the closure-weight count against the labeled tableaux.  The third is the
    labeling theorem for both families: neither labeling re-checks its own
    result, and ``apply_unlock`` does not validate its input or output, so
    this is where each tableau of either family is validated.  The fourth
    is where ``map``'s source is checked: ``lock_source_tableau`` builds its
    diagram without the closure search that counts the lock tableaux here.
    """
    key, lock = key_polynomial(a), lock_polynomial(a)
    for kind, p, validate in (("key", key, validate_kkt), ("lock", lock, validate_lkt)):
        tableaux = enumerate_tableaux(a, kind)
        for t in tableaux:
            if not validate(t, a):
                return f"{kind} labeling {t.entries} is not a {kind} tableau"
        weights = Counter(padded_weight(t.diagram, len(a)) for t in tableaux)
        if weights != dict(p.terms):
            return f"{kind} polynomial is not the weight count of the {kind} tableaux"
    flat = flatten(a)
    found = [t for t in tableaux if weight(t.diagram) == flat]  # the loop ends on locks
    if len(found) != 1:
        return f"{len(found)} lock tableaux have weight {flat}, not exactly one"
    source = lock_source_tableau(a)
    if source != found[0]:
        return (
            f"lock source {source.entries} is not the lock tableau {found[0].entries} "
            f"of weight {flat}"
        )
    diff = subtract(key, lock)
    if not is_monomial_positive(diff):
        return f"key - lock has a negative term: {diff}"
    return None


def check_intertwining(a: Composition) -> str | None:
    """Unlock intertwines the crystal operators: every lock edge (u, v, i)
    maps to the key edge (unlock u, unlock v, i).

    Both crystals are the cached ``crystal_graph``s, whose vertices are their
    family's enumeration in order, so ``unlock_map``'s positions index key
    vertices.  An edge stands for raising read from v and lowering read
    from u, so testing each lock edge once covers both.
    """
    image = unlock_map(a)
    lock = crystal_graph(a, "lock")
    key_edges = set(crystal_graph(a, "key").edges)
    for u, v, color in lock.edges:
        if (image[u], image[v], color) not in key_edges:
            return f"raising color {color} fails on {lock.vertices[v].entries}"
    return None


def check_connectivity(a: Composition) -> str | None:
    """Lock crystals (and key crystals) are connected."""
    for kind in ("lock", "key"):
        if not is_connected(crystal_graph(a, kind)):
            return f"{kind} crystal is disconnected"
    return None


def check_characterizations(a: Composition) -> str | None:
    """Polynomial-side symmetry tests match the shape-side predicates,
    with the Schur and lock-equals-key identities in their special cases."""
    facts = classify_symmetry(a)
    kp, lp = key_polynomial(a), lock_polynomial(a)
    tests = (
        ("key symmetric", is_symmetric(kp)),
        ("key quasisymmetric", is_quasisymmetric(kp)),
        ("lock symmetric", is_symmetric(lp)),
        ("lock quasisymmetric", is_quasisymmetric(lp)),
    )
    for name, poly_side in tests:
        if poly_side != facts[name]:
            return f"{name}: polynomial says {poly_side}, shape says {facts[name]}"
    if facts["key symmetric"] and kp != schur_polynomial(tuple(reversed(a)), len(a)):
        return "key polynomial of increasing content is not the reversed-shape Schur"
    if facts["lock symmetric"]:
        shape = tuple(sorted(flatten(a), reverse=True))
        if lp != schur_polynomial(shape, len(a)):
            return "symmetric lock polynomial is not the rectangular Schur"
    nonzero = flatten(a)
    if all(nonzero[i] >= nonzero[i + 1] for i in range(len(nonzero) - 1)) and lp != kp:
        return "decreasing nonzero parts but lock != key"
    return None


def check_agreement_and_truncation(a: Composition) -> str | None:
    """Unlock agrees with rectification stepwise, and truncating away large
    labels never changes which cell a prefix rectification step moves.

    ``unlock_map`` checks the agreement, raising on a failure.  For the
    truncation, ``unlock.rectify_walk`` walks each lock tableau's diagram
    along all blocks of the schedule but the last, and each truncation along
    its own prefix of those; the two lists of moves must agree, with no None."""
    unlock_map(a)
    labels = [i + 1 for i, p in enumerate(a) if p > 0]
    groups = schedule_groups(flatten(a))
    longest = [idx for block in groups[:-1] for idx in block]
    prefixes = [longest[:n] for n in itertools.accumulate(len(block) for block in groups[:-1])]
    for t in enumerate_tableaux(a, "lock"):
        moves, _ = rectify_walk(t.diagram.rows, longest)
        for bound, prefix in zip(labels[1:], prefixes):
            # truncating below the label of part q + 1 must keep the first p
            # blocks' moves for every p <= q; each of those prefixes starts
            # this walk over the first q blocks, so one walk covers them all
            small, _ = rectify_walk(truncate_below(t, bound).diagram.rows, prefix)
            # a walk ends at its first None, so a None can only be last
            if small == moves[:len(prefix)] and (not small or small[-1] is not None):
                continue
            for s, (move_small, move_full) in enumerate(zip(small, moves)):
                if move_full != move_small:
                    return (
                        f"truncation below {bound} changes step {s} "
                        f"(index {longest[s]}) on {t.entries}: "
                        f"{move_small} vs {move_full}"
                    )
                if move_full is None:
                    return (
                        f"rectification vanished at prefix step {s} "
                        f"(index {longest[s]}) on {t.entries}"
                    )
    return None


#: Each ``verify --check`` name and its check.  ``run_checks`` looks a check up
#: here on every call, so a wrapper put in its place is the one that runs.
ALL_CHECKS: dict[str, Callable[[Composition], str | None]] = {
    "positivity": check_positivity,
    "intertwine": check_intertwining,
    "connected": check_connectivity,
    "characterize": check_characterizations,
    "agreement": check_agreement_and_truncation,
}

#: The name each check's report goes under.
REPORT_NAMES = {
    "positivity": "positivity",
    "intertwine": "intertwining",
    "connected": "connectivity",
    "characterize": "characterizations",
    "agreement": "agreement+truncation",
}


def run_checks(
    names: Iterable[str],
    rng: SweepRange = DEFAULT_RANGE,
    extra: Sequence[Composition] = SPOT_COMPOSITIONS,
) -> list[VerificationReport]:
    """Run each composition of the sweep through every named check.

    Reports come in the order of ``names``, each with its failures in
    composition order and the summed time of its own calls.  A
    TheoremViolation a check raises is that check's witness.  Unknown names
    raise ValueError before any composition runs.
    """
    names = list(names)
    unknown = [name for name in dict.fromkeys(names) if name not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; the known checks are {list(ALL_CHECKS)}")
    comps = _sweep(rng, extra)
    failures: list[list[tuple[Composition, str]]] = [[] for _ in names]
    elapsed = [0.0] * len(names)
    for a in comps:
        for k, name in enumerate(names):
            start = time.perf_counter()
            try:
                witness = ALL_CHECKS[name](a)
            except TheoremViolation as exc:  # a check reports, it does not crash
                witness = str(exc)
            elapsed[k] += time.perf_counter() - start
            if witness is not None:
                failures[k].append((a, witness))
    return [
        VerificationReport(REPORT_NAMES[name], len(comps), tuple(failures[k]), elapsed[k])
        for k, name in enumerate(names)
    ]
