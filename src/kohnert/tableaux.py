"""Labeled diagrams: key and lock Kohnert tableaux.

A labeled diagram assigns one positive integer label to each cell.  The two
tableau families share conditions (1)-(3) of their definitions (column
support per label, the flagged bound, weakly descending strings) and differ
in condition (4): keys use the inversion rule, locks strict column decrease.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

from .core import (
    Cell,
    Composition,
    Diagram,
    TheoremViolation,
    _masks,
    flatten,
    grid_ascii,
    key_diagram,
    kohnert_closure,
    lock_diagram,
    weight,
)

Entry = tuple[Cell, int]

_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, order=True, slots=True)
class LabeledDiagram:
    """Immutable cell-to-label map, stored sorted row-major."""

    entries: tuple[Entry, ...] = ()
    _diagram: Diagram | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(sorted(((int(r), int(c)), int(l)) for (r, c), l in self.entries))
        cells = [cell for cell, _ in entries]
        if len(set(cells)) != len(cells):
            raise ValueError("duplicate cell in labeled diagram")
        if any(l < 1 for _, l in entries):
            raise ValueError("labels must be positive")
        _set(self, "entries", entries)
        _set(self, "_diagram", Diagram(tuple(cells)))

    @classmethod
    def _trusted(
        cls, entries: tuple[Entry, ...], diagram: Diagram | None = None
    ) -> "LabeledDiagram":
        """Trusted: ``entries`` must be sorted with distinct cells and positive
        labels, and ``diagram``, when given, must hold exactly their cells."""
        t = _new(cls)
        _set(t, "entries", entries)
        _set(t, "_diagram", diagram)
        return t

    @property
    def diagram(self) -> Diagram:
        d = self._diagram
        if d is None:
            cells = tuple(cell for cell, _ in self.entries)
            d = Diagram._trusted(cells, _masks(cells))
            _set(self, "_diagram", d)
        return d

    @property
    def strings(self) -> dict[int, tuple[Cell, ...]]:
        """Cells per label, ordered by column (then row)."""
        out: dict[int, list[Cell]] = {}
        for cell, label in self.entries:
            out.setdefault(label, []).append(cell)
        return {
            label: tuple(sorted(cells, key=lambda rc: (rc[1], rc[0])))
            for label, cells in sorted(out.items())
        }

    def label_at(self, cell: Cell) -> int:
        entries = self.entries
        k = bisect_left(entries, (cell,))
        if k == len(entries) or entries[k][0] != cell:
            raise KeyError(cell)
        return entries[k][1]

    def content(self) -> Composition:
        """Multiplicity of each label from 1 up to the largest present."""
        top = max((l for _, l in self.entries), default=0)
        counts = [0] * top
        for _, l in self.entries:
            counts[l - 1] += 1
        return tuple(counts)

    def to_json(self) -> list[list[int]]:
        return [[r, c, l] for (r, c), l in self.entries]

    @classmethod
    def from_json(cls, data: object) -> "LabeledDiagram":
        if not isinstance(data, list) or not all(
            isinstance(p, list) and len(p) == 3 and all(type(x) is int for x in p)
            for p in data
        ):
            raise ValueError("labeled diagram JSON must be a list of [row, col, label] integers")
        return cls(tuple(((r, c), l) for r, c, l in data))

    def ascii(self) -> str:
        return grid_ascii({cell: str(l) for cell, l in self.entries})

    def compact(self) -> str:
        """One-line form, top row first, rows joined by '/'."""
        marks = {cell: str(l) for cell, l in self.entries}
        max_row = self.diagram.max_row
        max_col = self.diagram.max_col
        rows = [
            "".join(marks.get((r, c), ".") for c in range(1, max_col + 1))
            for r in range(max_row, 0, -1)
        ]
        return "/".join(rows) if rows else "()"


def _conditions_hold(t: LabeledDiagram, a: Composition, lock: bool) -> bool:
    """All four tableau conditions for content ``a``, in one pass over the entries.

    Conditions (1)-(3) are shared: label i fills each column of its range
    exactly once (1..a_i for keys, m-a_i+1..m for locks), every label is at
    least its row (flagged), and each string's rows weakly descend left to
    right.  Condition (4) is strict increase up each column for locks, and
    the inversion rule for keys: whenever a smaller label sits above a
    larger one, the smaller label reappears in the next column strictly
    above the larger one's row.  Entries come row by row from the bottom,
    so a cell sees every cell below it in its column, and of its string
    the one in the previous column if that lies lower.
    """
    n = len(a)
    m = max(a, default=0)
    stride = m + 2
    at = [0] * ((n + 1) * stride)  # at[l * stride + c]: row of label l in column c, or 0
    # per column, as rows ascend: the last label (locks), every label (keys)
    below = [0] * stride if lock else [[] for _ in range(stride)]
    pending = []  # keys: (index into at, row the label must exceed there)
    for (r, c), l in t.entries:
        if l > n or l < r:
            return False
        part = a[l - 1]
        if not (m - part < c <= m if lock else c <= part):
            return False
        k = l * stride + c
        if at[k] or 0 < at[k - 1] < r:
            return False
        at[k] = r
        if lock:
            if below[c] >= l:
                return False
            below[c] = l
        else:
            column = below[c]
            for g in reversed(column):
                if g > l:
                    pending.append((k + 1, at[g * stride + c]))
                    break
            column.append(l)
    if len(t.entries) != sum(a):  # so every string fills its whole column range
        return False
    return all(at[k] > floor for k, floor in pending)


def validate_kkt(t: LabeledDiagram, a: Composition) -> bool:
    """Check all four key Kohnert tableau conditions for content ``a``."""
    return _conditions_hold(t, a, lock=False)


def validate_lkt(t: LabeledDiagram, a: Composition) -> bool:
    """Check all four lock Kohnert tableau conditions for content ``a``."""
    return _conditions_hold(t, a, lock=True)


@lru_cache(maxsize=None)
def label_key(d: Diagram, a: Composition) -> LabeledDiagram | None:
    """Find the key Kohnert tableau labeling of ``d`` with content ``a``.

    Condition (1) already fixes which labels each column holds (label i
    occupies columns 1..a_i), so only the vertical arrangement within each
    column is free.  Columns are filled left to right and each column one
    cell at a time, top cell first, by backtracking.  A label l may take
    row r only if it passes three rules, checked as the cell is filled:
    the flag (l >= r), descent (r is at most l's row in the previous
    column), and inversion (r is above every larger label sitting below l
    in the previous column; when such a label exists, l must continue into
    the next column).  The search runs to exhaustion so that a second
    labeling, which would contradict uniqueness, is detected.

    Returns None when no labeling exists; raises TheoremViolation if two do.
    """
    width = max(a, default=0)
    col_rows: list[list[int]] = [[] for _ in range(width)]  # bottom to top
    for r, c in d.cells:
        if c > width:
            return None
        col_rows[c - 1].append(r)
    col_labels: list[list[int]] = [[] for _ in range(width)]
    for l, part in enumerate(a, 1):
        for c in range(part):
            col_labels[c].append(l)
    if any(len(rows) != len(labels) for rows, labels in zip(col_rows, col_labels)):
        return None

    n = len(a)
    placed = [[0] * (n + 1) for _ in range(width)]  # placed[c][l]: row of l in column c + 1
    floor = [[0] * (n + 1) for _ in range(width + 1)]  # l must sit above floor[c][l]
    solutions: list[tuple] = []

    def place(c: int, k: int, used: int) -> None:
        """Fill cell k (from the bottom) of column c + 1, then the cells
        below it and the columns after it."""
        labels = col_labels[c]
        cur = placed[c]
        prev = placed[c - 1] if c else None
        low = floor[c]
        r = col_rows[c][k]
        for l in labels:
            if l < r or low[l] >= r or used >> l & 1 or (prev is not None and prev[l] < r):
                continue
            cur[l] = r
            if k:
                place(c, k - 1, used | 1 << l)
            elif _bound_next_column(labels, cur, floor[c + 1], a, c + 2):
                if c + 1 < width:
                    place(c + 1, len(col_rows[c + 1]) - 1, 0)
                else:
                    label_of = {
                        (col[g], j + 1): g for j, col in enumerate(placed) for g in col_labels[j]
                    }
                    solutions.append(tuple((cell, label_of[cell]) for cell in d.cells))
            if len(solutions) > 1:
                return

    if width:
        place(0, len(col_rows[0]) - 1, 0)
    else:
        solutions.append(())
    if len(solutions) > 1:
        raise TheoremViolation(
            f"two key labelings of {d.cells} for content {a}: "
            f"{solutions[0]} and {solutions[1]}"
        )
    return LabeledDiagram._trusted(solutions[0], d) if solutions else None


def _bound_next_column(
    labels: list[int], cur: list[int], nxt: list[int], a: Composition, c: int
) -> bool:
    """The inversion rule across a filled column and column ``c``.

    ``cur[l]`` is the row of each of ``labels`` in the filled column.  Sets
    ``nxt[l]`` to the highest row of a larger label below l (0 if none),
    which l must clear in column c; False when such an l stops short of c.
    """
    for l in labels:
        r = cur[l]
        below = 0
        for g in labels:
            if g > l and below < cur[g] < r:
                below = cur[g]
        if below and a[l - 1] < c:
            return False
        nxt[l] = below
    return True


@lru_cache(maxsize=None)
def label_lock(d: Diagram, a: Composition) -> LabeledDiagram | None:
    """Find the lock Kohnert tableau labeling of ``d`` with content ``a``.

    Closed form: each column's label set is forced, and strict column
    decrease forces their order (largest label on top).  The remaining
    flagged and descent conditions are then checked.
    """
    m = max(a, default=0)
    col_labels: list[list[int]] = [[] for _ in range(m)]  # smallest first
    for l, part in enumerate(a, 1):
        for c in range(m - part, m):
            col_labels[c].append(l)
    filled = [0] * m  # cells met so far in each column, bottom up
    entries = []
    for cell in d.cells:
        c = cell[1] - 1
        if c >= m or filled[c] == len(col_labels[c]):
            return None
        entries.append((cell, col_labels[c][filled[c]]))
        filled[c] += 1
    if any(k != len(labels) for k, labels in zip(filled, col_labels)):
        return None
    t = LabeledDiagram._trusted(tuple(entries), d)
    return t if validate_lkt(t, a) else None


@lru_cache(maxsize=None)
def enumerate_kkt(a: Composition) -> tuple[LabeledDiagram, ...]:
    """All key Kohnert tableaux of content ``a``, in canonical order."""
    out = []
    for d in kohnert_closure(key_diagram(a)):
        t = label_key(d, a)
        if t is None:
            raise TheoremViolation(f"closure diagram {d.cells} of {a} has no key labeling")
        out.append(t)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def enumerate_lkt(a: Composition) -> tuple[LabeledDiagram, ...]:
    """All lock Kohnert tableaux of content ``a``, in canonical order."""
    out = []
    for d in kohnert_closure(lock_diagram(a)):
        t = label_lock(d, a)
        if t is None:
            raise TheoremViolation(f"closure diagram {d.cells} of {a} has no lock labeling")
        out.append(t)
    return tuple(sorted(out))


def lock_source_tableau(a: Composition) -> LabeledDiagram:
    """The unique lock Kohnert tableau of content ``a`` and weight flatten(a)."""
    target = flatten(a)
    found = [t for t in enumerate_lkt(a) if weight(t.diagram) == target]
    if len(found) != 1:
        raise TheoremViolation(f"{len(found)} lock tableaux of weight {target} for {a}")
    return found[0]


def truncate_below(t: LabeledDiagram, bound: int) -> LabeledDiagram:
    """Delete every box whose label is ``bound`` or larger."""
    return LabeledDiagram._trusted(tuple((cell, l) for cell, l in t.entries if l < bound))
