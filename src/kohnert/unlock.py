"""Rectification and the unlock map into key tableaux.

Rectification operators push one box from column i+1 to column i on bare
diagrams.  ``rectify_move`` finds that box on row masks; it is the one
rectification kernel, and ``rectify_walk`` applies its pushes to row masks
for ``unlock_map``'s agreement check and ``verify``'s truncation check.
Unlock operators do the same on labeled diagrams, first swapping the moving
box past any strings it crosses so that the labels land in a valid key
Kohnert tableau.  Driven by the schedule built from the flattened content,
unlock sends every lock Kohnert tableau to a key Kohnert tableau of the
same content and weight, injectively.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .core import (
    Cell,
    Composition,
    Diagram,
    TheoremViolation,
    _cells,
    _masks,
    _push_unpaired,
    cached_on_composition,
    flatten,
    weight,
)
from .tableaux import LabeledDiagram, enumerate_tableaux


def rectify_move(rows: list[int] | tuple[int, ...], i: int) -> tuple[Cell, Cell] | None:
    """The (source, target) cells of the rectification push on the row masks
    ``rows``, or None.

    One top-down pass finds the largest row r where the column surplus,
    boxes of column i+1 at or above row r minus those of column i, attains
    its positive maximum; the box there moves from column i+1 to column i.
    That row holds a box in column i+1 and none in column i.
    """
    if i < 1:
        raise ValueError("indices must be positive")
    best = row = surplus = 0
    for r in range(len(rows), 0, -1):
        pair = rows[r - 1] >> (i - 1) & 3  # bit 0: column i, bit 1: column i+1
        surplus += (pair >> 1) - (pair & 1)
        if surplus > best:
            best, row = surplus, r
    return None if best == 0 else ((row, i + 1), (row, i))


def rectify_walk(rows: Sequence[int], indices: Sequence[int]) -> tuple[list, list[int]]:
    """Rectify a copy of the row masks ``rows`` at each index in turn.

    Returns the moves ``rectify_move`` finds, up to and including the first
    None, and the masks they leave.  A push flips its row's bits for
    columns i and i+1."""
    rows = list(rows)
    moves = []
    for i in indices:
        move = rectify_move(rows, i)
        moves.append(move)
        if move is None:
            break
        rows[move[0][0] - 1] ^= 3 << (i - 1)
    return moves, rows


def rectify(d: Diagram, i: int) -> Diagram | None:
    """Push one box of column i+1 left to column i, or None if none may move."""
    (move,), rows = rectify_walk(d.rows, (i,))
    return None if move is None else Diagram._trusted(_cells(rows), tuple(rows))


def rectify_by_pairing(d: Diagram, i: int) -> Diagram | None:
    """Equivalent formulation: push the bottom-most horizontally unpaired
    box of column i+1, found by the vertical pairing ``_push_unpaired`` run on
    columns i and i+1 packed top row first (bit p for row ``top - p``).
    Kept separate so the two can be tested against each other."""
    if i < 1:
        raise ValueError("column index must be positive")
    top = len(d.rows)
    left = right = 0
    for p, mask in enumerate(reversed(d.rows)):
        left |= (mask >> (i - 1) & 1) << p
        right |= (mask >> i & 1) << p
    pushed = _push_unpaired((left, right), 1)
    if pushed is None:
        return None
    rows = list(d.rows)
    rows[top - pushed[0]] ^= 3 << (i - 1)  # row top + 1 - pushed[0]
    return Diagram._trusted(_cells(rows), tuple(rows))


def schedule_groups(alpha: Composition) -> tuple[tuple[int, ...], ...]:
    """Per-part blocks of the schedule for a flattened composition.

    Part i of size alpha_i contributes, for each of its boxes k = 1..alpha_i
    counted from the left, the indices m-alpha_i+k-1 down to k, which walk
    that box from its right-justified column to column k.  Parts of maximal
    size contribute nothing.
    """
    if any(type(p) is not int or p <= 0 for p in alpha):  # type(): True is an int
        raise ValueError(f"flattened composition must have positive parts, got {alpha}")
    m = max(alpha, default=0)
    groups = []
    for part in alpha:
        block: list[int] = []
        for k in range(1, part + 1):
            block.extend(range(m - part + k - 1, k - 1, -1))
        groups.append(tuple(block))
    return tuple(groups)


def build_schedule(alpha: Composition) -> tuple[int, ...]:
    """Flat schedule for a flattened composition: the operator subscripts in
    application order (first applied first)."""
    return tuple(idx for block in schedule_groups(alpha) for idx in block)


@lru_cache(maxsize=1024)
def _schedule(a: Composition) -> tuple[int, ...]:
    """The unlock schedule of content ``a``, looked up once per content
    rather than flattened again for each of its tableaux."""
    return build_schedule(flatten(a))


class UnlockStep(NamedTuple):
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


class UnlockTrace(NamedTuple):
    """Record of a full unlock run: the schedule, and every step's swaps and push."""

    schedule: tuple[int, ...]
    steps: tuple[UnlockStep, ...]
    initial: LabeledDiagram
    final: LabeledDiagram

    def to_json(self) -> dict:
        return {
            "schedule": list(self.schedule),
            "steps": [s.to_json() for s in self.steps],
            "input": self.initial.to_json(),
            "output": self.final.to_json(),
        }


class _UnlockState:
    """One labeled diagram under unlock operators, updated in place.

    ``row_in[c]`` maps each label with a box in column c to that box's row,
    and ``spans`` holds each label's column mask (bit c - 1 for column c).
    A label holds at most one box per column: input breaking that is a
    ValueError, and a push that would break it a TheoremViolation.
    """

    __slots__ = ("row_in", "spans")

    def __init__(self, t: LabeledDiagram) -> None:
        width = max(t.diagram.rows, default=0).bit_length()  # the widest row is the largest mask
        row_in: list[dict[int, int]] = [{} for _ in range(width + 1)]  # entry 0 unused
        spans: dict[int, int] = {}
        for (r, c), label in t.entries:
            column = row_in[c]
            if label in column:
                raise ValueError(f"label {label} has two boxes in column {c}")
            column[label] = r
            spans[label] = spans.get(label, 0) | 1 << (c - 1)
        self.row_in = row_in
        self.spans = spans

    def tableau(self) -> LabeledDiagram:
        """The labeled diagram now held, with its diagram built from the
        labels' cells, so that ``unlock_map``'s membership and weight checks
        read the output's own row masks."""
        entries = [((r, c), l) for c, column in enumerate(self.row_in) for l, r in column.items()]
        entries.sort()
        cells = tuple(cell for cell, _ in entries)
        return LabeledDiagram._trusted(tuple(entries), Diagram._trusted(cells, _masks(cells)))

    def op(self, i: int) -> UnlockStep | None:
        """Apply the unlock operator of index i (see ``unlock_op``) in place;
        returns its step, or None when every box of column i+1 is left
        justified."""
        col = i + 1
        if col >= len(self.row_in):
            return None
        right = self.row_in[col]
        left = self.row_in[i]
        spans = self.spans
        justified = (1 << i) - 1  # columns 1..i
        # the smallest label among the boxes not yet left justified; a column's
        # labels are distinct keys, so this is the smallest (label, row)
        label = None
        for l, r in right.items():
            if (label is None or l < label) and spans[l] & justified != justified:
                label, row = l, r
        if label is None:
            return None
        chosen = (row, col, label)
        swaps: list[tuple[Cell, Cell, int, int]] = []
        while True:
            # strings crossing the moving box: a box in column i weakly above
            # it (its anchor) and one in column i+1 strictly below it (the
            # box's own label sits at ``row`` itself, so it never qualifies).
            # The highest anchor crosses first; column i holds each row at
            # most once, so anchors are distinct and need no tie-break.
            anchor = row - 1
            for l, r in right.items():
                if r < row and (top := left.get(l, 0)) > anchor:
                    anchor, other, below = top, l, r
            if anchor < row:
                break
            right[other], right[label] = row, below
            swaps.append(((row, col), (below, col), label, other))
            row = below
        src, dst = (row, col), (row, i)
        if row in left.values():
            raise TheoremViolation(f"unlock stuck: cannot push {src} left past occupied {dst}")
        if label in left:
            raise TheoremViolation(f"unlock would give label {label} two boxes in column {i}")
        del right[label]
        left[label] = row
        spans[label] ^= 3 << (i - 1)  # columns i and i+1
        return UnlockStep(i, chosen, tuple(swaps), (src, dst))


def unlock_op(t: LabeledDiagram, i: int) -> tuple[LabeledDiagram, UnlockStep] | None:
    """Left-justify one box from column i+1 into column i.

    The box with the smallest label among the not-left-justified boxes of
    column i+1 is chosen.  While it crosses some string (a string with a
    box in column i weakly above it and a box in column i+1 strictly below
    it), it swaps rows with the crossing string's column-(i+1) box, taking
    the crossing with the highest column-i box first; once it crosses
    nothing it is pushed one column left.

    Returns None when every box of column i+1 is left justified.  Raises
    ValueError if a label of ``t`` has two boxes in one column, and
    TheoremViolation if the final push is blocked or would give the label
    a second box in column i, both impossible on schedule-driven lock
    tableau inputs.
    """
    if i < 1:
        raise ValueError("column index must be positive")
    state = _UnlockState(t)
    step = state.op(i)
    return None if step is None else (state.tableau(), step)


def apply_unlock(t: LabeledDiagram, a: Composition) -> tuple[LabeledDiagram, UnlockTrace]:
    """Run the full unlock schedule on ``t``, which must be a lock Kohnert
    tableau of content ``a``.  ``unlock_map`` checks each statement about
    the run once: agreement with rectification, membership, weight and
    injectivity."""
    sched = _schedule(a)
    state = _UnlockState(t)
    steps: list[UnlockStep] = []
    for pos, idx in enumerate(sched):
        step = state.op(idx)
        if step is None:
            raise TheoremViolation(
                f"unlock step {pos} (index {idx}) found nothing to move on "
                f"{state.tableau().entries}"
            )
        steps.append(step)
    out = state.tableau()
    return out, UnlockTrace(sched, tuple(steps), t, out)


@cached_on_composition
def unlock_map(a: Composition) -> tuple[int, ...]:
    """The unlock map on LKT(a) as positions: entry k is the index, in
    ``enumerate_tableaux(a, "key")``, of the image of the k-th tableau of
    ``enumerate_tableaux(a, "lock")``.  A padded content gets its stripped
    content's map.

    This is the one place each unlock theorem is checked, and any failure
    is a TheoremViolation.  Each run must agree with rectification step by
    step: ``rectify_walk`` on the source's row masks along the schedule must
    find each unlock push.  Each image must equal a key tableau (found by its
    row masks, one per closure diagram, then compared by its entries) and
    have its source's weight, and no two lock tableaux may share one image."""
    keys = enumerate_tableaux(a, "key")
    index = {k.diagram.rows: i for i, k in enumerate(keys)}
    image = []
    for t in enumerate_tableaux(a, "lock"):
        out, trace = apply_unlock(t, a)
        pushes = [step.push for step in trace.steps]
        moves, _ = rectify_walk(t.diagram.rows, trace.schedule)
        if moves != pushes:
            # the walk stops after a vanished step, so the first difference
            # is there or at two pushes from different rows; rebuild the
            # diagrams both sides see at that step for the witness
            pos = next(p for p, (push, move) in enumerate(zip(pushes, moves)) if push != move)
            idx = trace.schedule[pos]
            _, shadow = rectify_walk(t.diagram.rows, trace.schedule[:pos])
            if moves[pos] is None:
                raise TheoremViolation(
                    f"rectification step {pos} (index {idx}) vanished on {_cells(shadow)}"
                )
            unlocked = shadow.copy()
            unlocked[pushes[pos][0][0] - 1] ^= 3 << (idx - 1)
            shadow[moves[pos][0][0] - 1] ^= 3 << (idx - 1)
            raise TheoremViolation(
                f"unlock and rectification disagree after step {pos} (index {idx}): "
                f"{_cells(unlocked)} vs {_cells(shadow)}"
            )
        k = index.get(out.diagram.rows)
        if k is None or keys[k].entries != out.entries:
            raise TheoremViolation(
                f"unlock image {out.entries} of {t.entries} is not a key tableau of {a}"
            )
        before, after = weight(t.diagram), weight(out.diagram)
        if after != before:
            raise TheoremViolation(
                f"unlock changed the weight of {t.diagram.cells} from {before} to {after}"
            )
        image.append(k)
    if len(set(image)) != len(image):
        raise TheoremViolation(f"unlock map is not injective on content {a}")
    return tuple(image)


def unlock_image(a: Composition) -> tuple[LabeledDiagram, ...]:
    """Images of all lock Kohnert tableaux of content ``a``, in canonical
    order: the key tableaux at the positions ``unlock_map`` gives."""
    keys = enumerate_tableaux(a, "key")
    return tuple(keys[k] for k in sorted(unlock_map(a)))
