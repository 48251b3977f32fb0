"""Raising/lowering operators and crystal graphs.

One counted vertical pairing of rows i and i+1, ``core._push_unpaired``,
serves both directions: raising pushes the rightmost unpaired box of row
i+1 down to row i, and lowering, its partial inverse, the leftmost unpaired
box of row i up to row i+1.  Both tableau families raise the same way,
through the underlying diagram and relabeling, with one extra rule for
locks: raising stops when a box to the right of the moving box, in its row,
carries its label.  That rule, ``_lock_stops``, needs only the row masks,
since a lock label is forced by its box's place in its column, and so does
the one edge routine, ``_edges``.  ``crystal_graph`` runs it on the
enumerated tableaux, and ``crystal_counts`` on the closure's packed states,
for the two counts that need no labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    Composition,
    Diagram,
    TheoremViolation,
    _cells,
    _push_unpaired,
    cached_on_composition,
    closure_states,
    is_lock,
    key_diagram,
    lock_diagram,
)
from .tableaux import (
    LabeledDiagram,
    _column_labels,
    enumerate_tableaux,
    label_key,
    label_lock,
)


def raise_diagram(d: Diagram, i: int) -> Diagram | None:
    """Push the rightmost vertically unpaired box of row i+1 down to row i."""
    raised = _push_unpaired(d.rows, i)
    return None if raised is None else Diagram._trusted(_cells(raised[1]), raised[1])


def lower_diagram(d: Diagram, i: int) -> Diagram | None:
    """Push the leftmost vertically unpaired box of row i up to row i+1."""
    lowered = _push_unpaired(d.rows, i, up=True)
    return None if lowered is None else Diagram._trusted(_cells(lowered[1]), lowered[1])


def _lock_stops(rows: tuple[int, ...], labels: tuple[tuple[int, ...], ...], i: int,
                c: int) -> bool:
    """The lock stop rule on the row masks ``rows`` of a lock tableau:
    whether a box to the right of the moving box (i+1, c), in its row,
    carries its label.  Lock raising then does nothing, even though the
    diagram itself could be raised.

    A lock label is forced by its column's order: the k-th box from the
    bottom of column c, counting from 0, carries ``labels[c - 1][k]``, where
    ``labels`` is ``_column_labels(a, "lock")``.  So a box's label is read
    off the number of boxes below it in its column, and no entry is needed.
    """
    upper = rows[i]
    if not upper >> c:  # no box to the right
        return False
    below = rows[:i]

    def label(col: int) -> int:
        bit = 1 << (col - 1)  # each mask below adds bit when it has a box in col
        return labels[col - 1][sum(map(bit.__and__, below)) >> (col - 1)]

    moving = label(c)
    return any(label(col) == moving
               for col in range(c + 1, upper.bit_length() + 1) if upper >> (col - 1) & 1)


def raise_tableau(t: LabeledDiagram, a: Composition, i: int, kind: str) -> LabeledDiagram | None:
    """Raising on a key or lock Kohnert tableau: raise the diagram, subject
    to the lock stop rule, then relabel it.

    For locks, relabeling gives the tableau in which the moved box kept its
    label: the cell below the moving box is empty, so the move keeps the
    order of boxes in every column, and that order forces the lock labels.
    A raised diagram with no labeling is a TheoremViolation.
    """
    lock = is_lock(kind)
    rows = t.diagram.rows
    raised = _push_unpaired(rows, i)
    if raised is None or lock and _lock_stops(rows, _column_labels(a, "lock"), i, raised[0]):
        return None
    d = Diagram._trusted(_cells(raised[1]), raised[1])
    t2 = (label_lock if lock else label_key)(d, a)
    if t2 is None:
        raise TheoremViolation(f"raised {kind} diagram {d.cells} lost its labeling for {a}")
    return t2


def raise_kkt(t: LabeledDiagram, a: Composition, i: int) -> LabeledDiagram | None:
    return raise_tableau(t, a, i, "key")


def raise_lkt(t: LabeledDiagram, a: Composition, i: int) -> LabeledDiagram | None:
    return raise_tableau(t, a, i, "lock")


def lower_tableau(t: LabeledDiagram, a: Composition, i: int, kind: str) -> LabeledDiagram | None:
    """Partial inverse of key or lock raising: lower the diagram, relabel it,
    and keep the result only if raising sends it back to ``t``; None when no
    tableau of the family raises to ``t``."""
    label = label_lock if is_lock(kind) else label_key
    d2 = lower_diagram(t.diagram, i)
    if d2 is None:
        return None
    t2 = label(d2, a)
    if t2 is None or raise_tableau(t2, a, i, kind) != t:
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


def _edges(vertices: list[tuple[int, ...]], a: Composition,
           kind: str) -> list[tuple[int, int, int]]:
    """The edges of the key or lock crystal of content ``a`` whose vertices,
    by position, have the row masks ``vertices``: (u, v, i) whenever raising
    vertex v at color i gives vertex u.

    Raising is applied to every vertex at every color that can move a box,
    so a disconnected graph would be constructed faithfully rather than
    hidden by a search from one source.  Colors run over 1 .. (the vertex's
    highest row) - 1: at any higher color row i+1 is empty, so nothing is
    raised.  Each vertex's masks are raised by ``_push_unpaired``, the edge
    is skipped when the lock stop rule applies, and the raised masks are
    looked up among the vertices' instead of relabeling: every vertex is a
    closure diagram, and a diagram has at most one labeling per family.
    Raised masks outside the Kohnert closure are a TheoremViolation.
    """
    labels = _column_labels(a, "lock") if is_lock(kind) else None
    index = {rows: k for k, rows in enumerate(vertices)}
    edges = []
    for v, rows in enumerate(vertices):
        for color in range(1, len(rows)):
            raised = _push_unpaired(rows, color)
            if raised is None or labels is not None and _lock_stops(rows, labels, color, raised[0]):
                continue
            u = index.get(raised[1])
            if u is None:
                raise TheoremViolation(
                    f"raised {kind} diagram {_cells(raised[1])} is not in the Kohnert "
                    f"closure of {a}"
                )
            edges.append((u, v, color))
    return edges


@cached_on_composition(pad=lambda g, a: replace(g, content=a))
def crystal_graph(a: Composition, kind: str) -> CrystalGraph:
    """Build the key or lock crystal of content ``a``: its vertices are
    ``enumerate_tableaux(a, kind)``, in that order, and its edges come from
    ``_edges`` on their row masks, sorted.  Rows above the stripped
    content's length hold no box, so a padded content gets its stripped
    content's vertices and edges, in a record that carries ``a``.
    """
    vertices = enumerate_tableaux(a, kind)
    edges = _edges([v.diagram.rows for v in vertices], a, kind)
    return CrystalGraph(kind, a, vertices, tuple(sorted(edges)))


def crystal_counts(a: Composition, kind: str) -> tuple[int, int]:
    """The numbers of vertices and edges of ``crystal_graph(a, kind)``,
    counted on the packed states of ``closure_states``: each state decoded
    into row masks is a vertex, and ``_edges`` runs on them.  No ``Diagram``
    is built, nothing is labeled or sorted, and nothing is cached here.
    """
    seed = (lock_diagram if is_lock(kind) else key_diagram)(a)
    w, states = closure_states(seed.rows)
    if not w:  # no box: the one vertex is the empty diagram
        return 1, 0
    full = (1 << w) - 1
    # row r sits in bits (r - 1) * w onward, up to the highest box
    vertices = [tuple(state >> s & full for s in range(0, state.bit_length(), w))
                for state in states]
    return len(vertices), len(_edges(vertices, a, kind))


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
