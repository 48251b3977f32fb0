"""Horizontal pairing, rectification, and the unlock map into key tableaux.

Rectification operators push one box from column i+1 to column i on bare
diagrams.  Unlock operators do the same on labeled diagrams, first swapping
the moving box past any strings it crosses so that the labels land in a
valid key Kohnert tableau.  Driven by the schedule built from the flattened
content, unlock sends every lock Kohnert tableau to a key Kohnert tableau
of the same content and weight, injectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Cell,
    Composition,
    Diagram,
    TheoremViolation,
    flatten,
    weight,
)
from .crystal import match_lines
from .tableaux import LabeledDiagram, enumerate_kkt, enumerate_lkt, validate_kkt, validate_lkt


@dataclass(frozen=True)
class HorizontalPairing:
    """Outcome of pairing columns i and i+1; unpaired lists run top to bottom."""

    col: int
    pairs: tuple[tuple[Cell, Cell], ...]
    unpaired_left: tuple[Cell, ...]
    unpaired_right: tuple[Cell, ...]


def horizontal_pairing(d: Diagram, i: int) -> HorizontalPairing:
    """Pair the boxes of columns i and i+1: same row first, then each
    unpaired right box with the lowest unpaired left box above it whenever
    everything between is already paired."""
    if i < 1:
        raise ValueError("column index must be positive")
    cols = d.cols
    left = cols[i - 1] if i <= len(cols) else 0
    right = cols[i] if i < len(cols) else 0
    # bit position p stands for row p + 1; read top to bottom
    pairs, unpaired_left, unpaired_right = match_lines(
        left, right, range((left | right).bit_length() - 1, -1, -1)
    )
    return HorizontalPairing(
        i,
        tuple(sorted(((p + 1, i), (q + 1, i + 1)) for p, q in pairs)),
        tuple((p + 1, i) for p in unpaired_left),
        tuple((q + 1, i + 1) for q in unpaired_right),
    )


def m_statistic(d: Diagram, i: int, r: int) -> int:
    """Boxes of column i+1 at or above row r, minus the same for column i."""
    if i < 1 or r < 1:
        raise ValueError("indices must be positive")
    right = sum(1 for s, _ in d.column(i + 1) if s >= r)
    left = sum(1 for s, _ in d.column(i) if s >= r)
    return right - left


def _surplus_peak(d: Diagram, i: int) -> tuple[int, int]:
    """The maximum of ``m_statistic(d, i, r)`` over all rows r (at least 0),
    and the largest row attaining it when positive, in one top-down pass
    that keeps the running column counts."""
    if i < 1:
        raise ValueError("indices must be positive")
    best = row = surplus = 0
    rows = d.rows
    for r in range(len(rows), 0, -1):
        pair = rows[r - 1] >> (i - 1) & 3  # bit 0: column i, bit 1: column i+1
        surplus += (pair >> 1) - (pair & 1)
        if surplus > best:
            best, row = surplus, r
    return best, row


def m_max(d: Diagram, i: int) -> int:
    """Maximum of the column surplus over all rows; at least 0."""
    return _surplus_peak(d, i)[0]


def rectify_move(d: Diagram, i: int) -> tuple[Cell, Cell] | None:
    """The (source, target) cells of the rectification push, or None.

    The box at the largest row where the column surplus attains its
    positive maximum moves from column i+1 to column i.
    """
    best, r = _surplus_peak(d, i)
    if best <= 0:
        return None
    return (r, i + 1), (r, i)


def rectify(d: Diagram, i: int) -> Diagram | None:
    """Push one box of column i+1 left to column i, or None if none may move."""
    move = rectify_move(d, i)
    if move is None:
        return None
    src, dst = move
    return d.move(src, dst)


def rectify_by_pairing(d: Diagram, i: int) -> Diagram | None:
    """Equivalent formulation: push the bottom-most horizontally unpaired
    box of column i+1.  Kept separate so the two can be tested against
    each other."""
    hp = horizontal_pairing(d, i)
    if not hp.unpaired_right:
        return None
    r, c = min(hp.unpaired_right)
    return d.move((r, c), (r, i))


@dataclass(frozen=True)
class Schedule:
    """Operator subscripts in application order (first applied first)."""

    column_indices: tuple[int, ...]


def schedule_groups(alpha: Composition) -> tuple[tuple[int, ...], ...]:
    """Per-part blocks of the schedule for a flattened composition.

    Part i of size alpha_i contributes, for each of its boxes k = 1..alpha_i
    counted from the left, the indices m-alpha_i+k-1 down to k, which walk
    that box from its right-justified column to column k.  Parts of maximal
    size contribute nothing.
    """
    if any(p <= 0 for p in alpha):
        raise ValueError(f"flattened composition must have positive parts, got {alpha}")
    m = max(alpha, default=0)
    groups = []
    for part in alpha:
        block: list[int] = []
        for k in range(1, part + 1):
            block.extend(range(m - part + k - 1, k - 1, -1))
        groups.append(tuple(block))
    return tuple(groups)


def build_schedule(alpha: Composition) -> Schedule:
    """Flat application-order schedule for a flattened composition."""
    return Schedule(tuple(idx for block in schedule_groups(alpha) for idx in block))


@dataclass(frozen=True)
class LabelString:
    """The boxes carrying one label, ordered by column."""

    label: int
    boxes: tuple[Cell, ...]


def strings_of(t: LabeledDiagram) -> tuple[LabelString, ...]:
    return tuple(LabelString(label, cells) for label, cells in t.strings.items())


def left_justified(t: LabeledDiagram, cell: Cell, label: int | None = None) -> bool:
    """Whether every column left of ``cell`` holds a box of its string."""
    if label is None:
        label = t.label_at(cell)
    cols = {c for (_, c), l in t.entries if l == label}
    return all(c in cols for c in range(1, cell[1]))


@dataclass(frozen=True)
class UnlockStep:
    """One unlock operator application: the chosen box, its swaps, its push."""

    op: int
    chosen: tuple[int, int, int]  # (row, col, label) when selected
    swaps: tuple[tuple[Cell, Cell, int, int], ...]  # (from, to, label, swapped label)
    push: tuple[Cell, Cell]

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "chosen": list(self.chosen),
            "swaps": [[list(x), list(y), lx, ly] for x, y, lx, ly in self.swaps],
            "push": [list(self.push[0]), list(self.push[1])],
        }


@dataclass(frozen=True)
class UnlockTrace:
    """Replayable record of a full unlock run."""

    schedule: Schedule
    steps: tuple[UnlockStep, ...]
    initial: LabeledDiagram
    final: LabeledDiagram

    def to_json(self) -> dict:
        return {
            "schedule": list(self.schedule.column_indices),
            "steps": [s.to_json() for s in self.steps],
            "input": self.initial.to_json(),
            "output": self.final.to_json(),
        }

    def replay(self) -> tuple[LabeledDiagram, ...]:
        """Reapply every recorded step; returns all intermediate tableaux."""
        states = [self.initial]
        for step in self.steps:
            entries = dict(states[-1].entries)
            for src, dst, label, other in step.swaps:
                if entries.get(src) != label or entries.get(dst) != other:
                    raise ValueError(f"trace swap {src}<->{dst} does not match state")
                entries[src], entries[dst] = other, label
            src, dst = step.push
            if dst in entries:
                raise ValueError(f"trace push target {dst} occupied")
            entries[dst] = entries.pop(src)
            states.append(LabeledDiagram(tuple(entries.items())))
        return tuple(states[1:])


def unlock_op(t: LabeledDiagram, i: int) -> tuple[LabeledDiagram, UnlockStep] | None:
    """Left-justify one box from column i+1 into column i.

    The box with the smallest label among the not-left-justified boxes of
    column i+1 is chosen.  While it crosses some string (a string with a
    box in column i weakly above it and a box in column i+1 strictly below
    it), it swaps rows with the crossing string's column-(i+1) box, taking
    the crossing with the highest column-i box first; once it crosses
    nothing it is pushed one column left.

    Returns None when every box of column i+1 is left justified.  Raises
    TheoremViolation if the final push is blocked, which is impossible on
    schedule-driven lock tableau inputs.
    """
    if i < 1:
        raise ValueError("column index must be positive")
    col = i + 1
    candidates = [
        (label, r)
        for (r, c), label in t.entries
        if c == col and not left_justified(t, (r, c), label)
    ]
    if not candidates:
        return None
    label, row = min(candidates)
    chosen = (row, col, label)

    entries = dict(t.entries)
    swaps: list[tuple[Cell, Cell, int, int]] = []
    while True:
        crossings = []
        strings: dict[int, list[Cell]] = {}
        for cell, l in entries.items():
            strings.setdefault(l, []).append(cell)
        for other_label, cells in strings.items():
            if other_label == label:
                continue
            in_left = [cell for cell in cells if cell[1] == i and cell[0] >= row]
            in_col = [cell for cell in cells if cell[1] == col and cell[0] < row]
            if in_left and in_col:
                anchor = max(r for r, _ in in_left)
                below = max(in_col)  # the string's single box in this column
                crossings.append((anchor, other_label, below))
        if not crossings:
            src, dst = (row, col), (row, i)
            if dst in entries:
                raise TheoremViolation(
                    f"unlock stuck: cannot push {src} left past occupied {dst}"
                )
            entries[dst] = entries.pop(src)
            step = UnlockStep(i, chosen, tuple(swaps), (src, dst))
            return LabeledDiagram._trusted(tuple(sorted(entries.items()))), step
        _, other_label, below = max(crossings)
        x_cell, y_cell = (row, col), below
        entries[x_cell], entries[y_cell] = other_label, label
        swaps.append((x_cell, y_cell, label, other_label))
        row = below[0]


def apply_rectification(d: Diagram, alpha: Composition) -> Diagram | None:
    """Fold rectification over the schedule of ``alpha``; None-propagating."""
    cur: Diagram | None = d
    for idx in build_schedule(alpha).column_indices:
        if cur is None:
            return None
        cur = rectify(cur, idx)
    return cur


def apply_unlock(t: LabeledDiagram, a: Composition) -> tuple[LabeledDiagram, UnlockTrace]:
    """Run the full unlock schedule on a lock Kohnert tableau of content ``a``.

    A rectification shadow runs alongside on the underlying diagram, and
    the two must agree after every step; the final tableau must be a key
    Kohnert tableau of the same content and weight.  Any disagreement is a
    TheoremViolation.
    """
    if not validate_lkt(t, a):
        raise ValueError(f"input is not a lock Kohnert tableau of content {a}")
    sched = build_schedule(flatten(a))
    shadow = t.diagram
    cur = t
    steps: list[UnlockStep] = []
    for pos, idx in enumerate(sched.column_indices):
        res = unlock_op(cur, idx)
        if res is None:
            raise TheoremViolation(
                f"unlock step {pos} (index {idx}) found nothing to move on {cur.entries}"
            )
        rectified = rectify(shadow, idx)
        if rectified is None:
            raise TheoremViolation(
                f"rectification step {pos} (index {idx}) vanished on {shadow.cells}"
            )
        cur, step = res
        shadow = rectified
        if cur.diagram != shadow:
            raise TheoremViolation(
                f"unlock and rectification disagree after step {pos} (index {idx}): "
                f"{cur.diagram.cells} vs {shadow.cells}"
            )
        steps.append(step)
    if not validate_kkt(cur, a):
        raise TheoremViolation(f"unlock output {cur.entries} is not a key tableau of {a}")
    if weight(cur.diagram) != weight(t.diagram):
        raise TheoremViolation("unlock changed the weight")
    return cur, UnlockTrace(sched, tuple(steps), t, cur)


@lru_cache(maxsize=None)
def unlock_map(a: Composition) -> tuple[tuple[LabeledDiagram, LabeledDiagram], ...]:
    """(source, image) pairs of the unlock map over all of LKT(a)."""
    return tuple((t, apply_unlock(t, a)[0]) for t in enumerate_lkt(a))


def unlock_image(a: Composition) -> tuple[LabeledDiagram, ...]:
    """Images of all lock Kohnert tableaux of content ``a``, in canonical order.

    Verifies injectivity and membership in the key tableaux of ``a``.
    """
    pairs = unlock_map(a)
    images = [img for _, img in pairs]
    if len(set(images)) != len(images):
        raise TheoremViolation(f"unlock map is not injective on content {a}")
    keys = set(enumerate_kkt(a))
    for src, img in pairs:
        if img not in keys:
            raise TheoremViolation(
                f"unlock image {img.entries} of {src.entries} is not a key tableau of {a}"
            )
    return tuple(sorted(images))
