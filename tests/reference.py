"""Test-only reference implementations of the diagram kernel.

These are the straightforward formulations the packed-row kernel replaced:
a breadth-first closure that rescans rows of cell sets, fixpoint pairing,
the column-surplus statistic evaluated at every row, a key labeling search
over all k! arrangements of each column, the closed-form lock labeling,
condition-by-condition tableau validation, the key crystal built by
relabeling every raised diagram, the lock crystal built by moving each
raised box with its label, and the unlock operator that rebuilds every
string from a cell-to-label dict on each swap.  They work on plain cell
tuples and share no code with ``kohnert`` beyond reading ``Diagram.cells``
and ``LabeledDiagram.entries``, so the differential tests can hold the
kernel to them.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations


def kohnert_move(cells, row):
    """The cell set after dropping the rightmost cell of ``row``, or None."""
    cur = frozenset(cells)
    if not any(r == row for r, _ in cur):
        return None
    c = max(cc for r, cc in cur if r == row)
    for r in range(row - 1, 0, -1):
        if (r, c) not in cur:
            return cur - {(row, c)} | {(r, c)}
    return None


def closure(cells) -> tuple[tuple, ...]:
    """Cell tuples of every diagram reachable by Kohnert moves, sorted."""
    start = frozenset(cells)
    seen = {start}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        for row in sorted({r for r, _ in cur}):
            nxt = kohnert_move(cur, row)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(tuple(sorted(s)) for s in seen))


def match_lines(prev_cells, next_cells, pos):
    """Fixpoint pairing: same position first, then each unpaired ``next``
    box takes the nearest earlier free ``prev`` box whenever every box
    strictly between them is paired, repeated until nothing changes."""
    prev_at = {pos(cell): cell for cell in prev_cells}
    next_at = {pos(cell): cell for cell in next_cells}
    paired_prev = {}
    paired_next = set()
    for p, seeker in next_at.items():
        if p in prev_at:
            paired_prev[prev_at[p]] = seeker
            paired_next.add(seeker)

    def all_between_paired(lo, hi):
        for p in range(lo + 1, hi):
            if p in prev_at and prev_at[p] not in paired_prev:
                return False
            if p in next_at and next_at[p] not in paired_next:
                return False
        return True

    changed = True
    while changed:
        changed = False
        for p in sorted(next_at, reverse=True):
            seeker = next_at[p]
            if seeker in paired_next:
                continue
            free = [q for q, cell in prev_at.items() if q < p and cell not in paired_prev]
            if not free:
                continue
            q = max(free)
            if all_between_paired(q, p):
                paired_prev[prev_at[q]] = seeker
                paired_next.add(seeker)
                changed = True
    unpaired_prev = [prev_at[q] for q in sorted(prev_at) if prev_at[q] not in paired_prev]
    unpaired_next = [next_at[q] for q in sorted(next_at) if next_at[q] not in paired_next]
    return paired_prev, unpaired_prev, unpaired_next


def _line(cells, axis, value):
    return tuple(sorted(cell for cell in cells if cell[axis] == value))


def vertical_pairing(cells, i):
    """(pairs, unpaired lower, unpaired upper) of rows i and i+1."""
    paired, lower, upper = match_lines(
        _line(cells, 0, i), _line(cells, 0, i + 1), lambda cell: cell[1]
    )
    return tuple(sorted(paired.items())), tuple(lower), tuple(upper)


def horizontal_pairing(cells, i):
    """(pairs, unpaired left, unpaired right) of columns i and i+1."""
    paired, left, right = match_lines(
        _line(cells, 1, i), _line(cells, 1, i + 1), lambda cell: -cell[0]
    )
    return tuple(sorted(paired.items())), tuple(left), tuple(right)


def m_statistic(cells, i, r):
    right = sum(1 for s, c in cells if c == i + 1 and s >= r)
    left = sum(1 for s, c in cells if c == i and s >= r)
    return right - left


def m_max(cells, i):
    top = max((r for r, _ in cells), default=0)
    return max(m_statistic(cells, i, r) for r in range(1, top + 2))


def rectify_move(cells, i):
    best = m_max(cells, i)
    if best <= 0:
        return None
    top = max((r for r, _ in cells), default=0)
    r = max(row for row in range(1, top + 2) if m_statistic(cells, i, row) == best)
    return (r, i + 1), (r, i)


def _inversions_ok(column, next_column):
    for r1, l1 in column.items():
        for r2, l2 in column.items():
            if l1 < l2 and r1 > r2:
                if not any(l == l1 and r > r2 for r, l in next_column.items()):
                    return False
    return True


def label_key(cells, a):
    """Entries of the unique key labeling, None if there is none; raises
    AssertionError on a second labeling."""
    n = len(a)
    max_col = max(a, default=0)
    if any(c > max_col for _, c in cells):
        return None
    col_labels = {c: [i for i in range(1, n + 1) if a[i - 1] >= c] for c in range(1, max_col + 1)}
    col_rows = {c: sorted(r for r, cc in cells if cc == c) for c in range(1, max_col + 1)}
    if any(len(col_rows[c]) != len(col_labels[c]) for c in range(1, max_col + 1)):
        return None
    solutions = []
    placed = []

    def place(c):
        if c > max_col:
            if not placed or _inversions_ok(placed[-1], {}):
                solutions.append(tuple(sorted(
                    ((r, col + 1), l) for col, assignment in enumerate(placed)
                    for r, l in assignment.items()
                )))
            return
        for perm in permutations(col_labels[c]):
            cur = dict(zip(col_rows[c], perm))
            if any(l < r for r, l in cur.items()):
                continue
            if placed:
                rows_by_label = {l: r for r, l in placed[-1].items()}
                if not all(rows_by_label[l] >= r for r, l in cur.items()):
                    continue
                if not _inversions_ok(placed[-1], cur):
                    continue
            placed.append(cur)
            place(c + 1)
            placed.pop()

    place(1)
    assert len(solutions) <= 1, f"two key labelings of {cells} for {a}"
    return solutions[0] if solutions else None


def key_crystal(a):
    """(vertices, edges) of the key crystal of content ``a``: the sorted key
    labelings of the closure of the key diagram, and an edge (u, v, i)
    wherever raising vertex v's diagram at color i and relabeling the result
    gives vertex u."""
    seed = tuple((i + 1, c) for i, part in enumerate(a) for c in range(1, part + 1))
    vertices = tuple(sorted(label_key(cells, a) for cells in closure(seed)))
    index = {entries: k for k, entries in enumerate(vertices)}
    edges = []
    for k, entries in enumerate(vertices):
        cells = {cell for cell, _ in entries}
        for i in range(1, len(a)):
            upper = vertical_pairing(cells, i)[2]
            if upper:
                r, c = upper[-1]
                raised = tuple(sorted(cells - {(r, c)} | {(i, c)}))
                edges.append((index[label_key(raised, a)], k, i))
    return vertices, tuple(sorted(edges))


def label_lock(cells, a):
    """Entries of the lock labeling, None if there is none: each column's
    forced labels, largest on top, then the lock conditions."""
    n = len(a)
    m = max(a, default=0)
    if any(c > m for _, c in cells):
        return None
    entries = []
    for c in range(1, m + 1):
        labels = sorted((i for i in range(1, n + 1) if a[i - 1] >= m - c + 1), reverse=True)
        rows = sorted((r for r, cc in cells if cc == c), reverse=True)
        if len(rows) != len(labels):
            return None
        entries.extend(((r, c), l) for r, l in zip(rows, labels))
    entries = tuple(sorted(entries))
    return entries if validate_lkt(entries, a) else None


def lock_crystal(a):
    """(vertices, edges) of the lock crystal of content ``a``: the sorted lock
    labelings of the closure of the lock diagram, and an edge (u, v, i)
    wherever raising vertex v at color i gives vertex u.  The rightmost
    unpaired box of row i+1 moves down keeping its label, unless a box to its
    right in row i+1 carries the same label; the moved tableau must pass the
    lock conditions."""
    m = max(a, default=0)
    seed = tuple((i + 1, c) for i, part in enumerate(a) for c in range(m - part + 1, m + 1))
    vertices = tuple(sorted(label_lock(cells, a) for cells in closure(seed)))
    index = {entries: k for k, entries in enumerate(vertices)}
    edges = []
    for k, entries in enumerate(vertices):
        labels = dict(entries)
        for i in range(1, len(a)):
            upper = vertical_pairing(tuple(labels), i)[2]
            if not upper:
                continue
            r, c = upper[-1]
            label = labels[(r, c)]
            if any(l == label for (rr, cc), l in entries if rr == r and cc > c):
                continue
            moved = dict(labels)
            moved[(i, c)] = moved.pop((r, c))
            raised = tuple(sorted(moved.items()))
            assert validate_lkt(raised, a), (entries, i)
            edges.append((index[raised], k, i))
    return vertices, tuple(sorted(edges))


def _strings(entries):
    out = {}
    for cell, label in entries:
        out.setdefault(label, []).append(cell)
    return {label: sorted(cells, key=lambda rc: (rc[1], rc[0])) for label, cells in out.items()}


def _shared_conditions(entries, a, first_col):
    n = len(a)
    strings = _strings(entries)
    if any(label > n for label in strings):
        return False
    for i in range(1, n + 1):
        lo, hi = first_col(i)
        if sorted(c for _, c in strings.get(i, ())) != list(range(lo, hi + 1)):
            return False
    if not all(l >= r for (r, _), l in entries):
        return False
    for cells in strings.values():
        rows = [r for r, _ in cells]
        if any(rows[k] < rows[k + 1] for k in range(len(rows) - 1)):
            return False
    return True


def _column(entries, c):
    return {r: l for (r, cc), l in entries if cc == c}


def validate_kkt(entries, a):
    if not _shared_conditions(entries, a, lambda i: (1, a[i - 1])):
        return False
    max_col = max((c for (_, c), _ in entries), default=0)
    return all(
        _inversions_ok(_column(entries, c), _column(entries, c + 1))
        for c in range(1, max_col + 1)
    )


def validate_lkt(entries, a):
    m = max(a, default=0)
    if not _shared_conditions(entries, a, lambda i: (m - a[i - 1] + 1, m)):
        return False
    max_col = max((c for (_, c), _ in entries), default=0)
    for c in range(1, max_col + 1):
        labels = [l for _, l in sorted(_column(entries, c).items())]
        if any(labels[k] >= labels[k + 1] for k in range(len(labels) - 1)):
            return False
    return True


def _left_justified(entries, label, col):
    cols = {c for (_, c), l in entries.items() if l == label}
    return all(c in cols for c in range(1, col))


def unlock_op(entries, i):
    """One unlock operator on a {cell: label} dict, updated in place.

    Returns the step as (op, chosen, swaps, push), the shape of
    ``UnlockStep.to_json``, or None when every box of column i+1 is left
    justified.
    """
    col = i + 1
    candidates = [
        (label, r)
        for (r, c), label in entries.items()
        if c == col and not _left_justified(entries, label, col)
    ]
    if not candidates:
        return None
    label, row = min(candidates)
    chosen = [row, col, label]
    swaps = []
    while True:
        crossings = []
        for other_label, cells in _strings(entries.items()).items():
            if other_label == label:
                continue
            in_left = [cell for cell in cells if cell[1] == i and cell[0] >= row]
            in_col = [cell for cell in cells if cell[1] == col and cell[0] < row]
            if in_left and in_col:
                anchor = max(r for r, _ in in_left)
                crossings.append((anchor, other_label, max(in_col)))
        if not crossings:
            src, dst = (row, col), (row, i)
            assert dst not in entries, f"unlock stuck at {src}"
            entries[dst] = entries.pop(src)
            return {"op": i, "chosen": chosen, "swaps": swaps, "push": [list(src), list(dst)]}
        _, other_label, below = max(crossings)
        x_cell = (row, col)
        entries[x_cell], entries[below] = other_label, label
        swaps.append([list(x_cell), list(below), label, other_label])
        row = below[0]


def unlock_trace(entries, a):
    """``UnlockTrace.to_json`` of the full unlock run on a lock tableau of
    content ``a``, its schedule rebuilt from the flattened content."""
    alpha = [p for p in a if p > 0]
    m = max(alpha, default=0)
    schedule = [
        idx for part in alpha for k in range(1, part + 1) for idx in range(m - part + k - 1, k - 1, -1)
    ]
    state = dict(entries)
    steps = []
    for idx in schedule:
        step = unlock_op(state, idx)
        assert step is not None, f"unlock step {idx} found nothing to move"
        steps.append(step)
    return {
        "schedule": schedule,
        "steps": steps,
        "input": [[r, c, l] for (r, c), l in entries],
        "output": [[r, c, l] for (r, c), l in sorted(state.items())],
    }
