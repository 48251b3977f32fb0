"""Vertical pairing, raising/lowering operators, and crystal graphs.

Raising pushes a box from row i+1 down to row i; lowering is its partial
inverse.  On key tableaux the operators act through the underlying diagram
and relabeling; on lock tableaux the moved box keeps its label, with an
extra same-label stop condition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .core import Cell, Composition, Diagram, TheoremViolation
from .tableaux import (
    LabeledDiagram,
    enumerate_tableaux,
    is_lock,
    label_key,
    label_lock,
    validate_lkt,
)


@dataclass(frozen=True)
class VerticalPairing:
    """Outcome of pairing rows i and i+1 of a diagram.

    ``pairs`` holds (lower, upper) cell pairs; the unpaired lists are
    ordered left to right.
    """

    row: int
    pairs: tuple[tuple[Cell, Cell], ...]
    unpaired_lower: tuple[Cell, ...]
    unpaired_upper: tuple[Cell, ...]


def match_lines(
    prev: int, nxt: int, scan: range
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Shared matching routine for vertical and horizontal pairings.

    ``prev`` is the line matched against (row i / column i) and ``nxt`` the
    line whose boxes seek partners (row i+1 / column i+1), both bitmasks
    over the same positions; ``scan`` lists the bit positions in reading
    order, "earlier" meaning left of / above.  Same-position boxes pair
    first; then each unpaired ``nxt`` box pairs with the nearest earlier
    unpaired ``prev`` box whenever every box strictly between them is
    already paired.  That is bracket matching, done in one stack scan:
    ``prev`` boxes open, ``nxt`` boxes close.

    Returns the (prev, nxt) position pairs and the leftover positions of
    each line, all in scan order.
    """
    pairs = []
    stack = []
    unpaired = []
    for p in scan:
        if prev >> p & 1:
            if nxt >> p & 1:
                pairs.append((p, p))
            else:
                stack.append(p)
        elif nxt >> p & 1:
            if stack:
                pairs.append((stack.pop(), p))
            else:
                unpaired.append(p)
    return pairs, stack, unpaired


def _row_pairing(d: Diagram, i: int) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """match_lines on rows i and i+1; bit position p stands for column p + 1."""
    if i < 1:
        raise ValueError("row index must be positive")
    rows = d.rows
    lower = rows[i - 1] if i <= len(rows) else 0
    upper = rows[i] if i < len(rows) else 0
    return match_lines(lower, upper, range((lower | upper).bit_length()))


def vertical_pairing(d: Diagram, i: int) -> VerticalPairing:
    """Pair the boxes of rows i and i+1: same column first, then each
    unpaired upper box with the rightmost unpaired lower box to its left
    whenever everything between is already paired."""
    pairs, lower, upper = _row_pairing(d, i)
    return VerticalPairing(
        i,
        tuple(sorted(((i, p + 1), (i + 1, q + 1)) for p, q in pairs)),
        tuple((i, p + 1) for p in lower),
        tuple((i + 1, q + 1) for q in upper),
    )


def raise_diagram(d: Diagram, i: int) -> Diagram | None:
    """Push the rightmost vertically unpaired box of row i+1 down to row i."""
    _, _, upper = _row_pairing(d, i)
    if not upper:
        return None
    c = upper[-1] + 1
    return d.move((i + 1, c), (i, c))


def lower_diagram(d: Diagram, i: int) -> Diagram | None:
    """Push the leftmost vertically unpaired box of row i up to row i+1."""
    _, lower, _ = _row_pairing(d, i)
    if not lower:
        return None
    c = lower[0] + 1
    return d.move((i, c), (i + 1, c))


def raise_kkt(t: LabeledDiagram, a: Composition, i: int) -> LabeledDiagram | None:
    """Raising on a key Kohnert tableau: raise the diagram, then relabel."""
    d2 = raise_diagram(t.diagram, i)
    if d2 is None:
        return None
    t2 = label_key(d2, a)
    if t2 is None:
        raise TheoremViolation(f"raised key diagram {d2.cells} lost its labeling for {a}")
    return t2


def raise_lkt(t: LabeledDiagram, a: Composition, i: int) -> LabeledDiagram | None:
    """Raising on a lock Kohnert tableau.

    The rightmost unpaired box of row i+1 moves down one row keeping its
    label, unless a box to its right in the same row carries the same
    label, in which case the operator returns None even though the
    underlying diagram could still be raised.
    """
    _, _, upper = _row_pairing(t.diagram, i)
    if not upper:
        return None
    c = upper[-1] + 1
    entries = t.entries
    k = bisect_left(entries, ((i + 1, c),))
    label = entries[k][1]
    for (r, _), l in entries[k + 1:]:
        if r > i + 1:
            break
        if l == label:
            return None
    rest = entries[:k] + entries[k + 1:]
    j = bisect_left(rest, ((i, c),))
    t2 = LabeledDiagram._trusted(rest[:j] + (((i, c), label),) + rest[j:])
    if not validate_lkt(t2, a):
        raise TheoremViolation(
            f"lock raising of {t.entries} by color {i} produced an invalid tableau"
        )
    return t2


def lower_tableau(t: LabeledDiagram, a: Composition, i: int, kind: str) -> LabeledDiagram | None:
    """Partial inverse of key or lock raising: lower the diagram, relabel it,
    and keep the result only if raising sends it back to ``t``; None when no
    tableau of the family raises to ``t``."""
    label, raiser = (label_lock, raise_lkt) if is_lock(kind) else (label_key, raise_kkt)
    d2 = lower_diagram(t.diagram, i)
    if d2 is None:
        return None
    t2 = label(d2, a)
    if t2 is None or raiser(t2, a, i) != t:
        return None
    return t2


def lower_kkt(t: LabeledDiagram, a: Composition, i: int) -> LabeledDiagram | None:
    return lower_tableau(t, a, i, "key")


def lower_lkt(t: LabeledDiagram, a: Composition, i: int) -> LabeledDiagram | None:
    return lower_tableau(t, a, i, "lock")


@dataclass(frozen=True)
class CrystalGraph:
    """Tableau vertices plus colored edges; an edge (u, v, i) means the
    color-i lowering operator sends vertex u to vertex v."""

    kind: str
    content: Composition
    vertices: tuple[LabeledDiagram, ...]
    edges: tuple[tuple[int, int, int], ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "content": list(self.content),
            "vertices": [v.to_json() for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        palette = ("blue", "purple", "violet", "red", "darkgreen", "orange", "brown")
        lines = [
            "digraph crystal {",
            "  rankdir=TB;",
            '  node [shape=box, fontname="monospace"];',
        ]
        for idx, v in enumerate(self.vertices):
            lines.append(f'  t{idx} [label="{v.compact()}"];')
        for src, dst, color in self.edges:
            style = palette[(color - 1) % len(palette)]
            lines.append(f'  t{src} -> t{dst} [label="{color}", color="{style}"];')
        lines.append("}")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def crystal_graph(a: Composition, kind: str) -> CrystalGraph:
    """Build the key or lock crystal of content ``a``.

    Raising is applied to every vertex and every color 1..len(a)-1, so a
    disconnected graph would be constructed faithfully rather than hidden
    by a search from one source.
    """
    raiser = raise_lkt if is_lock(kind) else raise_kkt
    vertices = enumerate_tableaux(a, kind)
    index = {v: k for k, v in enumerate(vertices)}
    edges = []
    for v_idx, v in enumerate(vertices):
        for color in range(1, len(a)):
            u = raiser(v, a, color)
            if u is not None:
                edges.append((index[u], v_idx, color))
    return CrystalGraph(kind, a, vertices, tuple(sorted(edges)))


def is_connected(g: CrystalGraph) -> bool:
    """Whether the underlying undirected graph has at most one component."""
    count = len(g.vertices)
    if count <= 1:
        return True
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst, _ in g.edges:
        parent[find(src)] = find(dst)
    return len({find(x) for x in range(count)}) == 1
