"""Weak compositions, cell diagrams, Kohnert moves, and closure search.

Cells are ``(row, col)`` pairs with row 1 at the bottom and column 1 at the
left.  Every value is immutable and hashable; operations return new objects,
so results can be cached and shared freely.

A ``Diagram`` is its sorted row-major ``cells`` tuple, which alone defines
equality, order and hashing, plus a packed copy the algorithms work on:
``rows[r - 1]`` is the bitmask of row r, bit ``c - 1`` standing for column
c.  Moves, pairings and the closure search are bit operations on these
masks.  The public constructor sorts and validates every cell, refusing any
coordinate that is not an int; the library's own moves build results
through the trusted constructor ``Diagram._trusted``, which skips that work
because its input is canonical by construction.  Trusted construction is
internal only: all input from outside goes through the validating path.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache, partial, wraps
from operator import attrgetter

Cell = tuple[int, int]
Composition = tuple[int, ...]

_new = object.__new__
_set = object.__setattr__

#: The most diagrams ``kohnert_closure`` collects before it raises ValueError.
#: Its states pack len(a)·max(a) bits, and the cost per state grows with that:
#: on N - 1 zeros and then N, ``poly --kind lock`` is refused after 1.2 s and
#: 46 MB (N = 64), 4 s and 124 MB (128), and 18-23 s and 438 MB (256; 2 vCPUs,
#: Python 3.11.7); N = 512, within the CLI limits, was not measured.  Tests
#: and benchmark need at most 24,696.
#: It also bounds the coefficient sum of a key polynomial, which ``poly``
#: computes by Demazure operators: that sum is the size of the key closure.
MAX_CLOSURE = 50_000

#: The most cells, and parts, of a composition: ``cli`` refuses a ``--comp``,
#: and ``verify._sweep`` a range of length or length * part, past it.  It bounds
#: input before ``key_diagram`` or ``lock_diagram`` builds a diagram cell by
#: cell; MAX_CLOSURE bounds the closure search that follows.  The part bound is
#: needed as well: the work per closure diagram grows with the length, and
#: MAX_CLOSURE alone would admit 1,0,...,0,1 with about 50,000 parts.
MAX_CELLS = 512


class TheoremViolation(Exception):
    """A mathematical invariant the library relies on failed to hold.

    Raised for situations that are provably impossible on valid inputs (a
    closure diagram with no labeling, an unlock step disagreeing with
    rectification, ...).  These abort loudly instead of returning None,
    because None is reserved for legitimately inapplicable operations.
    """


def flatten(a: Composition) -> Composition:
    """Drop the zero parts of a weak composition, keeping their order."""
    return tuple(p for p in a if p > 0)


def _masks(cells: tuple[Cell, ...]) -> tuple[int, ...]:
    """Row masks of sorted cells: entry r - 1 has bit c - 1 set per cell
    (r, c), up to the highest row that has a cell."""
    rows = [0] * (cells[-1][0] if cells else 0)
    for r, c in cells:
        rows[r - 1] |= 1 << (c - 1)
    return tuple(rows)


def _cells(rows: list[int] | tuple[int, ...]) -> tuple[Cell, ...]:
    """The cells of row masks ``rows``, in row-major order: the inverse of
    ``_masks``."""
    return tuple((r, c) for r, mask in enumerate(rows, 1)
                 for c in range(1, mask.bit_length() + 1) if mask >> (c - 1) & 1)


@dataclass(frozen=True, order=True, slots=True)
class Diagram:
    """A finite set of cells, stored sorted row-major (bottom row first).

    ``rows`` packs the same cells as one column bitmask per row, with no
    empty row above the highest cell.
    """

    cells: tuple[Cell, ...] = ()
    rows: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = tuple((r, c) for r, c in self.cells)
        if not all(type(r) is int and type(c) is int and min(r, c) >= 1 for r, c in cells):
            raise ValueError("cells must be int pairs with row >= 1 and col >= 1")
        cells = tuple(sorted(set(cells)))
        _set(self, "cells", cells)
        _set(self, "rows", _masks(cells))

    @classmethod
    def _trusted(cls, cells: tuple[Cell, ...], rows: tuple[int, ...]) -> "Diagram":
        """Skip validation: ``cells`` must be distinct, positive and sorted,
        and ``rows`` their masks (see ``_masks``)."""
        d = _new(cls)
        _set(d, "cells", cells)
        _set(d, "rows", rows)
        return d

    @property
    def max_row(self) -> int:
        return len(self.rows)

    @property
    def max_col(self) -> int:
        return max(self.rows, default=0).bit_length()  # the widest row is the largest mask

    def __contains__(self, cell: Cell) -> bool:
        r, c = cell
        return 1 <= r <= len(self.rows) and c >= 1 and bool(self.rows[r - 1] >> (c - 1) & 1)

    def __len__(self) -> int:
        return len(self.cells)

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
    return tuple(map(int.bit_count, d.rows))


def padded_weight(d: Diagram, n: int) -> Composition:
    """Weight extended with zeros to length ``n`` (rows above must be empty)."""
    w = weight(d)
    if len(w) > n:
        raise ValueError(f"diagram occupies row {len(w)} > {n}")
    return w + (0,) * (n - len(w))


def _check_parts(a: Composition) -> None:
    """Raise ValueError unless ``a`` is a tuple (a list cannot key a cache) of
    nonnegative ints (not bools, though ``bool`` subclasses ``int``)."""
    if not (isinstance(a, tuple) and all(type(part) is int and part >= 0 for part in a)):
        raise ValueError(f"a weak composition is a tuple of nonnegative integer parts, got {a}")


def cached_on_composition(fn=None, *, pad=None):
    """``lru_cache(maxsize=None)`` for a function whose first argument is a
    weak composition, keyed on that composition with its trailing zero parts
    stripped: they label nothing, so a content and its zero-padded twins
    share one computation.  A result that records its content goes through
    ``pad(result, a)`` to carry the ``a`` asked for; use as
    ``@cached_on_composition(pad=...)``.

    ``_check_parts`` runs on the full ``a`` before the lookup: the cache
    keys by equality, so (1, 2.0) would otherwise get (1, 2)'s answer once
    that is cached, where a cold call raises, and stripping would drop a
    0.0 or a False.  The result keeps ``cache_info``, ``cache_clear`` and
    ``__wrapped__`` (the uncached function)."""
    if fn is None:
        return partial(cached_on_composition, pad=pad)
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def checked(a, *args):
        _check_parts(a)
        n = end = len(a)
        while end and not a[end - 1]:
            end -= 1
        if end == n:
            return cached(a, *args)
        result = cached(a[:end], *args)
        return result if pad is None else pad(result, a)

    checked.cache_info = cached.cache_info
    checked.cache_clear = cached.cache_clear
    return checked


def _closure_too_large(a: Composition) -> ValueError:
    """The error for a content whose Kohnert closure has more than
    MAX_CLOSURE diagrams, whether a search or a coefficient sum found it."""
    return ValueError(
        f"the Kohnert closure of the diagram of weight {a} exceeds "
        f"the limit of {MAX_CLOSURE} diagrams"
    )


def is_lock(kind: str) -> bool:
    """Whether ``kind`` names the lock family rather than the key family.

    Every function taking a ``kind`` checks it here; anything other than
    "key" or "lock" is a ValueError.
    """
    if kind == "lock":
        return True
    if kind != "key":
        raise ValueError(f"kind must be 'key' or 'lock', got {kind!r}")
    return False


def key_diagram(a: Composition) -> Diagram:
    """The unique left-justified diagram of weight ``a``."""
    _check_parts(a)
    return Diagram(tuple((i + 1, c) for i, part in enumerate(a) for c in range(1, part + 1)))


def lock_diagram(a: Composition) -> Diagram:
    """The unique right-justified diagram of weight ``a``."""
    _check_parts(a)
    m = max(a, default=0)
    return Diagram(
        tuple((i + 1, c) for i, part in enumerate(a) for c in range(m - part + 1, m + 1))
    )


def _push_unpaired(
    rows: tuple[int, ...], i: int, up: bool = False
) -> tuple[int, tuple[int, ...]] | None:
    """Pair rows i and i+1 of the row masks ``rows`` and push one unpaired
    box: the rightmost of row i+1 down to row i, or with ``up`` the leftmost
    of row i up to row i+1.  Returns its column and the pushed masks, or
    None when there is no such box.

    Only that one box matters, so the pairing is counted, not listed: boxes
    in both rows pair in place, and scanning the rest from the left, each
    row-i box opens and each row-(i+1) box closes an open one if any is left
    and is unpaired otherwise.  The row-i boxes left open are unpaired, and
    the leftmost of them is the one opened last when none was open.
    """
    if i < 1:
        raise ValueError("row index must be positive")
    lower = rows[i - 1] if i <= len(rows) else 0
    upper = rows[i] if i < len(rows) else 0
    rest = lower ^ upper
    opened = first = last = 0
    while rest:
        low = rest & -rest
        rest ^= low
        if low & lower:
            if not opened:
                first = low
            opened += 1
        elif opened:
            opened -= 1
        else:
            last = low
    if up:
        bit = first if opened else 0
    else:
        bit = last
    if not bit:
        return None
    out = list(rows)
    if len(out) == i:  # lowering out of the top row
        out.append(0)
    out[i - 1] ^= bit
    out[i] ^= bit
    while not out[-1]:
        out.pop()
    return bit.bit_length(), tuple(out)


@lru_cache(maxsize=None)
def kohnert_closure(d: Diagram) -> tuple[Diagram, ...]:
    """All diagrams reachable from ``d`` by Kohnert moves, including ``d``.

    Breadth-first search with a visited set over packed states: row r sits
    in bits ``(r - 1) * w`` onward of one int, ``w`` being the width of
    ``d``, so a move is two bit flips.  Only the results become Diagrams,
    sorted so that iteration order (and anything serialized from it) is
    deterministic.  Finding more than MAX_CLOSURE diagrams raises ValueError.
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
                    if len(seen) > MAX_CLOSURE:
                        raise _closure_too_large(weight(d))
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


def family_closure(a: Composition, kind: str) -> tuple[Diagram, ...]:
    """The Kohnert closure of the key or lock diagram of ``a``: the diagrams
    of the key or lock Kohnert tableaux of content ``a``, one each."""
    return kohnert_closure((lock_diagram if is_lock(kind) else key_diagram)(a))
