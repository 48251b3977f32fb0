"""Labeled diagrams: key and lock Kohnert tableaux.

A labeled diagram assigns one positive integer label to each cell.  The two
tableau families share conditions (1)-(3) of their definitions (column
support per label, the flagged bound, weakly descending strings) and differ
in condition (4): keys use the inversion rule, locks strict column decrease.
Functions that serve both families take a ``kind``, "key" or "lock".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from .core import (
    Cell,
    Composition,
    Diagram,
    TheoremViolation,
    _check_parts,
    _masks,
    cached_on_composition,
    family_closure,
    flatten,
    grid_ascii,
    is_lock,
    lock_diagram,
)

Entry = tuple[Cell, int]

_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, order=True, slots=True)
class LabeledDiagram:
    """Immutable cell-to-label map, stored sorted row-major, holding the
    ``Diagram`` of its cells as ``diagram``."""

    entries: tuple[Entry, ...] = ()
    diagram: Diagram = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(((r, c), l) for (r, c), l in self.entries)
        if not all(type(l) is int and l >= 1 for _, l in entries):
            raise ValueError("labels must be positive ints")
        d = Diagram(tuple(cell for cell, _ in entries))  # validates the cells
        if len(d) != len(entries):
            raise ValueError("duplicate cell in labeled diagram")
        _set(self, "entries", tuple(sorted(entries)))
        _set(self, "diagram", d)

    @classmethod
    def _trusted(cls, entries: tuple[Entry, ...], diagram: Diagram) -> "LabeledDiagram":
        """Trusted: ``entries`` must be sorted with distinct cells and positive
        labels, and ``diagram`` must hold exactly their cells."""
        t = _new(cls)
        _set(t, "entries", entries)
        _set(t, "diagram", diagram)
        return t

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


@lru_cache(maxsize=1024)
def label_key(d: Diagram, a: Composition) -> LabeledDiagram | None:
    """The key Kohnert tableau labeling of ``d`` with content ``a``, or None.

    Label i fills columns 1..a_i, so each column's label set is forced
    (``_column_labels``, once per content) and only the order within it is
    free, and a direct rule picks it.  Columns go right to left, each
    column's cells bottom to top, and the cell at row r takes the smallest
    unused label l of its column that passes the flag (l >= r) and descent
    (l's row in the next column, if any, is at most r) tests.  None when a
    column's cell count differs from its label count, or a cell finds no
    label.

    The picks give all four tableau conditions, so the result is not
    checked again (``verify``'s positivity check validates every key
    tableau it enumerates):

    (1) each column's label set is ``_column_labels(a, "key")``, each label
        is used once per column, and a column whose cell count differs is
        refused, so label i fills exactly columns 1..a_i;
    (2) the flag is tested as ``l >= r``;
    (3) descent is tested against the column to the right, which is already
        filled, and adjacent columns suffice since each string's columns
        are contiguous;
    (4) inversion follows from taking the smallest label: say l sits above
        a larger label g in column c.  When g's cell, lower than l's, took
        g, l was unused and passed the flag there, so l must have failed
        descent: l appears in column c+1, strictly above g's row.
    """
    col_labels = _column_labels(a, "key")
    width = len(col_labels)
    col_cells = [[] for _ in col_labels]  # per column, bottom up: (k, row of d.cells[k])
    for k, (r, c) in enumerate(d.cells):
        if c > width:
            return None
        col_cells[c - 1].append((k, r))
    labels = [0] * len(d.cells)
    row = [0] * (len(a) + 1)  # row[l]: l's row in the last column filled, 0 if none
    for cells, free in zip(reversed(col_cells), reversed(col_labels)):
        if len(free) != len(cells):
            return None
        free = list(free)
        for k, r in cells:
            for l in free:  # an unused label's row is still its row in the column to the right
                if l >= r and row[l] <= r:
                    break
            else:
                return None
            free.remove(l)
            row[l] = r
            labels[k] = l
    return LabeledDiagram._trusted(tuple(zip(d.cells, labels)), d)


@lru_cache(maxsize=1024)
def _column_labels(a: Composition, kind: str) -> tuple[tuple[int, ...], ...]:
    """Per column, the labels a key or lock tableau of content ``a`` holds
    there, smallest first: label l fills columns 1 .. a_l of a key and
    m - a_l + 1 .. m of a lock, m = max(a)."""
    m = max(a, default=0)
    lock = is_lock(kind)
    return tuple(
        tuple(l for l, part in enumerate(a, 1) if part >= (m - c if lock else c + 1))
        for c in range(m)
    )


def label_lock(d: Diagram, a: Composition) -> LabeledDiagram | None:
    """The lock Kohnert tableau labeling of ``d`` with content ``a``, or None.

    Closed form: each column's label set is forced (``_column_labels``,
    once per content), which gives condition (1), and strict column
    decrease forces their order (largest label on top), which is condition
    (4).  One pass over the cells tests the other two: the flag (l >= r)
    and descent (l's row in the previous column, if met already, is not
    below r).  Cells come row-major from the bottom, so a box to the left
    that lies lower has always been met.  None when a column's cell count
    differs from its label count or a test fails.
    """
    col_labels = _column_labels(a, "lock")
    m = len(col_labels)
    stride = m + 1
    at = [0] * ((len(a) + 1) * stride)  # at[l * stride + c]: row of label l in column c, or 0
    filled = [0] * stride  # cells met so far in each column, bottom up
    entries = []
    for cell in d.cells:
        r, c = cell
        if c > m or filled[c] == len(col_labels[c - 1]):
            return None
        l = col_labels[c - 1][filled[c]]
        k = l * stride + c
        if l < r or 0 < at[k - 1] < r:
            return None
        at[k] = r
        filled[c] += 1
        entries.append((cell, l))
    if any(filled[c] != len(labels) for c, labels in enumerate(col_labels, 1)):
        return None
    return LabeledDiagram._trusted(tuple(entries), d)


@cached_on_composition
def enumerate_tableaux(a: Composition, kind: str) -> tuple[LabeledDiagram, ...]:
    """All key or lock Kohnert tableaux of content ``a``, in canonical order:
    the labelings of the Kohnert closure of the key or lock diagram.  The
    order is the dataclass order, sorted by ``entries`` to compare in C.
    Trailing zero parts label nothing, so a padded content gets its
    stripped content's tableaux."""
    label = label_lock if is_lock(kind) else label_key
    out = []
    for d in family_closure(a, kind):
        t = label(d, a)
        if t is None:
            raise TheoremViolation(f"closure diagram {d.cells} of {a} has no {kind} labeling")
        out.append(t)
    return tuple(sorted(out, key=attrgetter("entries")))


def enumerate_kkt(a: Composition) -> tuple[LabeledDiagram, ...]:
    return enumerate_tableaux(a, "key")


def enumerate_lkt(a: Composition) -> tuple[LabeledDiagram, ...]:
    return enumerate_tableaux(a, "lock")


def lock_source_tableau(a: Composition) -> LabeledDiagram:
    """The unique lock Kohnert tableau of content ``a`` and weight flatten(a):
    the labeling of ``lock_diagram(flatten(a))``, whose rows are the nonzero
    rows of the lock diagram of ``a``, each shifted down whole into the empty
    rows below it.  No closure is searched; ``verify``'s positivity check
    confirms that this is the only lock closure diagram of that weight."""
    _check_parts(a)  # flatten would drop a negative part, a False or a 0.0 unseen
    d = lock_diagram(flatten(a))
    t = label_lock(d, a)
    if t is None:
        raise TheoremViolation(f"source diagram {d.cells} of {a} has no lock labeling")
    return t


def truncate_below(t: LabeledDiagram, bound: int) -> LabeledDiagram:
    """Delete every box whose label is ``bound`` or larger."""
    entries = tuple((cell, l) for cell, l in t.entries if l < bound)
    cells = tuple(cell for cell, _ in entries)
    return LabeledDiagram._trusted(entries, Diagram._trusted(cells, _masks(cells)))
