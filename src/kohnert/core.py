"""Weak compositions, cell diagrams, Kohnert moves, and closure search.

Cells are ``(row, col)`` pairs with row 1 at the bottom and column 1 at the
left.  Every value is immutable and hashable; operations return new objects,
so results can be cached and shared freely.

A ``Diagram`` is its sorted row-major ``cells`` tuple, which alone defines
equality, order and hashing, plus a packed copy the algorithms work on:
``rows[r - 1]`` is the bitmask of row r, bit ``c - 1`` standing for column c,
and ``cols`` holds the column masks the same way.  Moves, pairings and the
closure search are bit operations on these masks.  The public constructor and
``from_json`` sort and validate every cell; the library's own moves build
results through the trusted constructor ``Diagram._trusted``, which skips
that work because its input is canonical by construction.  Trusted
construction is internal only: all input from outside goes through the
validating paths.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Iterable

Cell = tuple[int, int]
Composition = tuple[int, ...]

_new = object.__new__
_set = object.__setattr__


class TheoremViolation(Exception):
    """A mathematical invariant the library relies on failed to hold.

    Raised for situations that are provably impossible on valid inputs (a
    closure diagram with zero or two labelings, an unlock step disagreeing
    with rectification, ...).  These abort loudly instead of returning None,
    because None is reserved for legitimately inapplicable operations.
    """


def composition(parts: Iterable[int]) -> Composition:
    """Normalize to a tuple of nonnegative ints; trailing zeros are kept."""
    comp = tuple(int(p) for p in parts)
    if any(p < 0 for p in comp):
        raise ValueError(f"composition parts must be nonnegative, got {comp}")
    return comp


def flatten(a: Composition) -> Composition:
    """Drop the zero parts of a weak composition, keeping their order."""
    return tuple(p for p in a if p > 0)


def bits(mask: int) -> list[int]:
    """The 1-based positions of the set bits of ``mask``, lowest first."""
    return [p for p in range(1, mask.bit_length() + 1) if mask >> (p - 1) & 1]


def _masks(cells: tuple[Cell, ...]) -> tuple[int, ...]:
    """Row masks of sorted cells: entry r - 1 has bit c - 1 set per cell
    (r, c), up to the highest row that has a cell."""
    rows = [0] * (cells[-1][0] if cells else 0)
    for r, c in cells:
        rows[r - 1] |= 1 << (c - 1)
    return tuple(rows)


@dataclass(frozen=True, order=True, slots=True)
class Diagram:
    """A finite set of cells, stored sorted row-major (bottom row first).

    ``rows`` packs the same cells as one column bitmask per row, with no
    empty row above the highest cell.
    """

    cells: tuple[Cell, ...] = ()
    rows: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    _cols: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = tuple(sorted({(int(r), int(c)) for r, c in self.cells}))
        if cells and min(min(r, c) for r, c in cells) < 1:
            raise ValueError("cells must have row >= 1 and col >= 1")
        _set(self, "cells", cells)
        _set(self, "rows", _masks(cells))

    @classmethod
    def _trusted(cls, cells: tuple[Cell, ...], rows: tuple[int, ...]) -> "Diagram":
        """Skip validation: ``cells`` must be distinct, positive and sorted,
        and ``rows`` their masks (see ``_masks``)."""
        d = _new(cls)
        _set(d, "cells", cells)
        _set(d, "rows", rows)
        _set(d, "_cols", None)
        return d

    @property
    def cols(self) -> tuple[int, ...]:
        """Column masks: entry c - 1 has bit r - 1 set per cell (r, c)."""
        cols = self._cols
        if cols is None:
            width = max((mask.bit_length() for mask in self.rows), default=0)
            cols = [0] * width
            for r, c in self.cells:
                cols[c - 1] |= 1 << (r - 1)
            cols = tuple(cols)
            _set(self, "_cols", cols)
        return cols

    @property
    def max_row(self) -> int:
        return len(self.rows)

    @property
    def max_col(self) -> int:
        return len(self.cols)

    def __contains__(self, cell: Cell) -> bool:
        r, c = cell
        return 1 <= r <= len(self.rows) and c >= 1 and bool(self.rows[r - 1] >> (c - 1) & 1)

    def __len__(self) -> int:
        return len(self.cells)

    def row(self, r: int) -> tuple[Cell, ...]:
        """Cells in row ``r``, left to right."""
        return tuple((r, c) for c in bits(self.rows[r - 1])) if 1 <= r <= len(self.rows) else ()

    def column(self, c: int) -> tuple[Cell, ...]:
        """Cells in column ``c``, bottom to top."""
        cols = self.cols
        return tuple((r, c) for r in bits(cols[c - 1])) if 1 <= c <= len(cols) else ()

    def occupied_rows(self) -> tuple[int, ...]:
        return tuple(r for r, mask in enumerate(self.rows, 1) if mask)

    def move(self, src: Cell, dst: Cell) -> "Diagram":
        """Return a copy with the cell at ``src`` relocated to ``dst``."""
        if src not in self:
            raise ValueError(f"no cell at {src}")
        if dst in self:
            raise ValueError(f"cell already at {dst}")
        if min(dst) < 1:
            raise ValueError("cells must have row >= 1 and col >= 1")
        cells = list(self.cells)
        cells.remove(src)
        insort(cells, dst)
        rows = list(self.rows) + [0] * (dst[0] - len(self.rows))
        rows[src[0] - 1] ^= 1 << (src[1] - 1)
        rows[dst[0] - 1] |= 1 << (dst[1] - 1)
        while not rows[-1]:
            rows.pop()
        return Diagram._trusted(tuple(cells), tuple(rows))

    def to_json(self) -> list[list[int]]:
        return [[r, c] for r, c in self.cells]

    @classmethod
    def from_json(cls, data: object) -> "Diagram":
        if not isinstance(data, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
            for p in data
        ):
            raise ValueError("diagram JSON must be a list of [row, col] integer pairs")
        return cls(tuple((r, c) for r, c in data))

    def ascii(self) -> str:
        return grid_ascii({cell: "x" for cell in self.cells})


def grid_ascii(marks: dict[Cell, str]) -> str:
    """Render cell markings top row first, with a baseline under row 1."""
    max_row = max((r for r, _ in marks), default=0)
    max_col = max((c for _, c in marks), default=0)
    width = max((len(s) for s in marks.values()), default=1)
    lines = []
    for r in range(max_row, 0, -1):
        lines.append(
            " ".join(marks.get((r, c), ".").rjust(width) for c in range(1, max_col + 1))
        )
    lines.append("-" * max(1, max_col * (width + 1) - 1))
    return "\n".join(lines)


def weight(d: Diagram) -> Composition:
    """Cells per row, from row 1 up to the highest nonempty row."""
    return tuple(mask.bit_count() for mask in d.rows)


def padded_weight(d: Diagram, n: int) -> Composition:
    """Weight extended with zeros to length ``n`` (rows above must be empty)."""
    w = weight(d)
    if len(w) > n:
        raise ValueError(f"diagram occupies row {len(w)} > {n}")
    return w + (0,) * (n - len(w))


def key_diagram(a: Composition) -> Diagram:
    """The unique left-justified diagram of weight ``a``."""
    return Diagram(tuple((i + 1, c) for i, part in enumerate(a) for c in range(1, part + 1)))


def lock_diagram(a: Composition) -> Diagram:
    """The unique right-justified diagram of weight ``a``."""
    m = max(a, default=0)
    return Diagram(
        tuple((i + 1, c) for i, part in enumerate(a) for c in range(m - part + 1, m + 1))
    )


def kohnert_move(d: Diagram, row: int) -> Diagram | None:
    """Drop the rightmost cell of ``row`` to the first open cell below it.

    The cell falls within its column, jumping over occupied cells, and lands
    in the highest empty position strictly below.  Returns None when the row
    is empty or the column is blocked all the way to the floor.
    """
    if row < 1:
        raise ValueError("row must be positive")
    rows = d.rows
    if row > len(rows) or not rows[row - 1]:
        return None
    c = rows[row - 1].bit_length()
    for r in range(row - 1, 0, -1):
        if (r, c) not in d:
            return d.move((row, c), (r, c))
    return None


@lru_cache(maxsize=None)
def kohnert_closure(d: Diagram) -> tuple[Diagram, ...]:
    """All diagrams reachable from ``d`` by Kohnert moves, including ``d``.

    Breadth-first search with a visited set over packed states: row r sits
    in bits ``(r - 1) * w`` onward of one int, ``w`` being the width of
    ``d``, so a move is two bit flips.  Only the results become Diagrams,
    sorted so that iteration order (and anything serialized from it) is
    deterministic.
    """
    w = d.max_col
    height = d.max_row
    if not w:
        return (d,)
    full = (1 << w) - 1
    column = sum(1 << (r * w) for r in range(height))  # bit 0 of every row
    start = sum(mask << (r * w) for r, mask in enumerate(d.rows))
    seen = {start}
    frontier = [start]
    for state in frontier:  # grows while it is read: a FIFO queue
        for r in range(1, height):
            shift = r * w
            row = state >> shift & full
            if not row:
                continue
            c = row.bit_length() - 1
            # open cells of column c below row r; the highest one receives the cell
            free = ~state & (column << c) & ((1 << shift) - 1)
            if free:
                nxt = state ^ (1 << (shift + c)) | (1 << (free.bit_length() - 1))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    cell_at = [(p // w + 1, p % w + 1) for p in range(height * w)]  # bit p -> its cell
    out = []
    for state in frontier:
        cells = []
        rest = state
        while rest:  # lowest bit first, which is row-major order
            low = rest & -rest
            cells.append(cell_at[low.bit_length() - 1])
            rest ^= low
        rows = [state >> (r * w) & full for r in range(cells[-1][0])]
        out.append(Diagram._trusted(tuple(cells), tuple(rows)))
    return tuple(sorted(out, key=attrgetter("cells")))
