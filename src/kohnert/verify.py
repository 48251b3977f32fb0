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

from .core import MAX_CELLS, Composition, TheoremViolation, flatten, padded_weight, weight
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
from .unlock import rectify_move, schedule_groups, unlock_map

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
        # a negative bound leaves nothing to sweep, and an empty sweep must not pass
        if self.max_length < 0 or self.max_part < 0:
            raise ValueError(
                f"sweep bounds must be nonnegative, got max length {self.max_length} "
                f"and max part {self.max_part}"
            )

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
        level = [()] if size >= 0 else []
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
    of a sweep: ValueError past the length, size or count limit, or on none."""
    n, p = rng.max_length, rng.max_part
    if n > MAX_CELLS:  # the size test below passes any length at max part 0
        raise ValueError(f"sweep length {n} (max-len) exceeds the limit of {MAX_CELLS} parts")
    if n * p > MAX_CELLS:
        raise ValueError(
            f"sweep size {n * p} (max-len * max-part) exceeds the limit of {MAX_CELLS} cells"
        )
    count = rng.count()
    size = "" if rng.max_size is None else f", size <= {rng.max_size}"
    described = f"the sweep range (length <= {n}, parts <= {p}{size})"
    if count > MAX_SWEEP:
        raise ValueError(
            f"{described} holds {count} compositions, which exceeds the limit of "
            f"{MAX_SWEEP} compositions"
        )
    comps = list(rng.compositions())
    seen = set(comps)
    for a in extra:
        if a not in seen:
            comps.append(a)
            seen.add(a)
    if not comps:
        # a check over no composition proves nothing, so it must not pass
        raise ValueError(f"{described} holds no composition, and no extra one was given")
    return comps


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
    profile = classify_symmetry(a)
    kp = key_polynomial(a)
    lp = lock_polynomial(a)
    facts = (
        ("key symmetric", is_symmetric(kp), profile.key_sym),
        ("key quasisymmetric", is_quasisymmetric(kp), profile.key_qsym),
        ("lock symmetric", is_symmetric(lp), profile.lock_sym),
        ("lock quasisymmetric", is_quasisymmetric(lp), profile.lock_qsym),
    )
    for name, poly_side, shape_side in facts:
        if poly_side != shape_side:
            return f"{name}: polynomial says {poly_side}, shape says {shape_side}"
    if profile.key_sym and kp != schur_polynomial(tuple(reversed(a)), len(a)):
        return "key polynomial of increasing content is not the reversed-shape Schur"
    if profile.lock_sym:
        shape = tuple(sorted(flatten(a), reverse=True))
        if lp != schur_polynomial(shape, len(a)):
            return "symmetric lock polynomial is not the rectangular Schur"
    nonzero = flatten(a)
    if all(nonzero[i] >= nonzero[i + 1] for i in range(len(nonzero) - 1)) and lp != kp:
        return "decreasing nonzero parts but lock != key"
    return None


def check_agreement_and_truncation(a: Composition) -> str | None:
    """Unlock agrees with rectification stepwise, and truncating away large
    labels never changes which cell a prefix rectification step moves."""
    # unlock_map checks the agreement, with the images' membership and
    # weights, on all of LKT(a); a failure raises, so its result is not read
    unlock_map(a)
    labels = [i + 1 for i, p in enumerate(a) if p > 0]
    groups = schedule_groups(flatten(a))
    ends = list(itertools.accumulate(len(block) for block in groups[:-1]))
    longest = [idx for block in groups[:-1] for idx in block]
    for t in enumerate_tableaux(a, "lock"):
        # the untruncated diagram's moves along the longest prefix, up to
        # the first None; every shorter prefix reads its start.  Both walks
        # run on row masks: a push flips columns idx and idx+1 of its row
        moves = []
        full = list(t.diagram.rows)
        for idx in longest:
            move = rectify_move(full, idx)
            moves.append(move)
            if move is None:
                break
            full[move[0][0] - 1] ^= 3 << (idx - 1)
        for q in range(1, len(labels)):
            # truncating below labels[q] must keep the first p blocks' moves
            # for every p <= q; each of those prefixes starts this walk over
            # the first q blocks, so one walk covers them all
            bound = labels[q]
            small = list(truncate_below(t, bound).diagram.rows)
            for s in range(ends[q - 1]):
                idx = longest[s]
                move_full = moves[s]
                move_small = rectify_move(small, idx)
                if move_full != move_small:
                    return (
                        f"truncation below {bound} changes step {s} "
                        f"(index {idx}) on {t.entries}: "
                        f"{move_small} vs {move_full}"
                    )
                if move_full is None:
                    return (
                        f"rectification vanished at prefix step {s} "
                        f"(index {idx}) on {t.entries}"
                    )
                small[move_small[0][0] - 1] ^= 3 << (idx - 1)
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
