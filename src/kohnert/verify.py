"""Theorem-level checkers sweeping composition ranges, with witnesses.

Each checker folds a predicate over every composition in range and records
the first failing witness per composition.  A report with no failures means
the swept statement held everywhere.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .core import Composition, TheoremViolation
from .crystal import (
    crystal_graph,
    is_connected,
    lower_kkt,
    lower_lkt,
    raise_kkt,
)
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
from .tableaux import enumerate_tableaux, truncate_below
from .unlock import rectify_move, schedule_groups, unlock_image, unlock_map

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

    def compositions(self) -> Iterator[Composition]:
        for length in range(self.max_length + 1):
            for parts in itertools.product(range(self.max_part + 1), repeat=length):
                if self.max_size is None or sum(parts) <= self.max_size:
                    yield parts


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
    comps = list(rng.compositions())
    seen = set(comps)
    for a in extra:
        if a not in seen:
            comps.append(a)
            seen.add(a)
    return comps


def _run(
    name: str,
    rng: SweepRange,
    extra: Sequence[Composition],
    fn: Callable[[Composition], str | None],
) -> VerificationReport:
    comps = _sweep(rng, extra)
    failures = []
    start = time.perf_counter()
    for a in comps:
        try:
            witness = fn(a)
        except TheoremViolation as exc:  # a checker reports, it does not crash
            witness = str(exc)
        if witness is not None:
            failures.append((a, witness))
    elapsed = time.perf_counter() - start
    return VerificationReport(name, len(comps), tuple(failures), elapsed)


def check_positivity(
    rng: SweepRange = DEFAULT_RANGE, extra: Sequence[Composition] = SPOT_COMPOSITIONS
) -> VerificationReport:
    """Key minus lock is monomial positive."""

    def fn(a: Composition) -> str | None:
        diff = subtract(key_polynomial(a), lock_polynomial(a))
        if not is_monomial_positive(diff):
            return f"key - lock has a negative term: {diff}"
        return None

    return _run("positivity", rng, extra, fn)


def check_intertwining(
    rng: SweepRange = DEFAULT_RANGE, extra: Sequence[Composition] = SPOT_COMPOSITIONS
) -> VerificationReport:
    """Unlock commutes with raising and lowering operators.

    Lock raising is read from the edges of the lock crystal, which applies
    ``raise_lkt`` to every lock tableau and color once per content.
    """

    def fn(a: Composition) -> str | None:
        images = dict(unlock_map(a))
        lock = crystal_graph(a, "lock")
        raised_to = {(v, color): u for u, v, color in lock.edges}
        for k, t in enumerate(lock.vertices):
            for color in range(1, len(a)):
                u = raised_to.get((k, color))
                if u is not None:
                    if images[lock.vertices[u]] != raise_kkt(images[t], a, color):
                        return f"raising color {color} fails on {t.entries}"
                lowered = lower_lkt(t, a, color)
                if lowered is not None:
                    if images[lowered] != lower_kkt(images[t], a, color):
                        return f"lowering color {color} fails on {t.entries}"
        return None

    return _run("intertwining", rng, extra, fn)


def check_connectivity(
    rng: SweepRange = DEFAULT_RANGE, extra: Sequence[Composition] = SPOT_COMPOSITIONS
) -> VerificationReport:
    """Lock crystals (and key crystals) are connected."""

    def fn(a: Composition) -> str | None:
        for kind in ("lock", "key"):
            if not is_connected(crystal_graph(a, kind)):
                return f"{kind} crystal is disconnected"
        return None

    return _run("connectivity", rng, extra, fn)


def check_characterizations(
    rng: SweepRange = DEFAULT_RANGE, extra: Sequence[Composition] = SPOT_COMPOSITIONS
) -> VerificationReport:
    """Polynomial-side symmetry tests match the shape-side predicates,
    with the Schur and lock-equals-key identities in their special cases."""

    def fn(a: Composition) -> str | None:
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
            shape = tuple(sorted((p for p in a if p > 0), reverse=True))
            if lp != schur_polynomial(shape, len(a)):
                return "symmetric lock polynomial is not the rectangular Schur"
        nonzero = [p for p in a if p > 0]
        if all(nonzero[i] >= nonzero[i + 1] for i in range(len(nonzero) - 1)) and lp != kp:
            return "decreasing nonzero parts but lock != key"
        return None

    return _run("characterizations", rng, extra, fn)


def check_agreement_and_truncation(
    rng: SweepRange = DEFAULT_RANGE, extra: Sequence[Composition] = SPOT_COMPOSITIONS
) -> VerificationReport:
    """Unlock agrees with rectification stepwise (asserted inside
    apply_unlock), and truncating away large labels never changes which
    cell a prefix rectification step moves."""

    def fn(a: Composition) -> str | None:
        unlock_image(a)  # runs apply_unlock, with its internal shadow, on all of LKT(a)
        labels = [i + 1 for i, p in enumerate(a) if p > 0]
        groups = schedule_groups(tuple(p for p in a if p > 0))
        ends = list(itertools.accumulate(len(block) for block in groups[:-1]))
        longest = [idx for block in groups[:-1] for idx in block]
        for t in enumerate_tableaux(a, "lock"):
            # the untruncated diagram's moves along the longest prefix, up to
            # the first None; every shorter prefix reads its start
            moves = []
            full = t.diagram
            for idx in longest:
                move = rectify_move(full, idx)
                moves.append(move)
                if move is None:
                    break
                full = full.move(*move)
            for p in range(1, len(labels)):
                for bound in labels:
                    if bound <= labels[p - 1]:
                        continue
                    small = truncate_below(t, bound).diagram
                    for s in range(ends[p - 1]):
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
                        small = small.move(*move_small)
        return None

    return _run("agreement+truncation", rng, extra, fn)


ALL_CHECKS: dict[str, Callable[..., VerificationReport]] = {
    "positivity": check_positivity,
    "intertwine": check_intertwining,
    "connected": check_connectivity,
    "characterize": check_characterizations,
    "agreement": check_agreement_and_truncation,
}


def run_checks(
    names: Iterable[str],
    rng: SweepRange = DEFAULT_RANGE,
    extra: Sequence[Composition] = SPOT_COMPOSITIONS,
) -> list[VerificationReport]:
    return [ALL_CHECKS[name](rng, extra) for name in names]
