"""Differential tests: the packed-row kernel against the references in
``reference.py``, plus the trusted constructors against the validating ones."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from kohnert import (
    SPOT_COMPOSITIONS,
    Diagram,
    LabeledDiagram,
    apply_unlock,
    crystal_graph,
    enumerate_kkt,
    enumerate_lkt,
    enumerate_tableaux,
    key_diagram,
    kohnert_closure,
    label_key,
    label_lock,
    lock_diagram,
    lower_diagram,
    raise_diagram,
    rectify_by_pairing,
    rectify_move,
    validate_kkt,
    validate_lkt,
    weight,
)
from kohnert.crystal import _push_unpaired

import reference
from golden import LONG_INTERLEAVED

#: Every weak composition of length <= 5 with parts <= 3 and size <= 6.
COMPOSITIONS = [
    a
    for length in range(6)
    for a in itertools.product(range(4), repeat=length)
    if sum(a) <= 6
]


@pytest.fixture(scope="module")
def closures():
    """{a: (key closure, lock closure)} over COMPOSITIONS."""
    return {
        a: (kohnert_closure(key_diagram(a)), kohnert_closure(lock_diagram(a)))
        for a in COMPOSITIONS
    }


def test_closure_matches_row_scan_bfs(closures):
    for a, (key, lock) in closures.items():
        assert tuple(d.cells for d in key) == reference.closure(key_diagram(a).cells), a
        assert tuple(d.cells for d in lock) == reference.closure(lock_diagram(a).cells), a


def test_labelings_match_permutation_search_and_closed_form(closures):
    pairs = 0  # one per (d, a, closure): 16,941 plus the two of the empty composition
    for a, (key, lock) in closures.items():
        for d in key + lock:
            for labeler, expected in (
                (label_key.__wrapped__, reference.label_key(d.cells, a)),  # not a cached answer
                (label_lock, reference.label_lock(d.cells, a)),
            ):
                t = labeler(d, a)
                assert (t.entries if t is not None else None) == expected, (labeler, d.cells, a)
                if t is not None:
                    assert t.diagram == d
            pairs += 1
    assert pairs == 16943


def test_key_labeling_matches_permutation_search_on_long_interleaved_shapes():
    pairs = 0
    for a in LONG_INTERLEAVED:
        for d in kohnert_closure(key_diagram(a)):
            t = label_key.__wrapped__(d, a)
            assert t is not None and t.entries == reference.label_key(d.cells, a), (d.cells, a)
            pairs += 1
    assert (len(LONG_INTERLEAVED), pairs) == (316, 19619)


@pytest.mark.parametrize("kind", ["key", "lock"])
def test_enumeration_is_in_dataclass_order(kind):
    for a in dict.fromkeys(COMPOSITIONS + list(SPOT_COMPOSITIONS)):
        tableaux = enumerate_tableaux(a, kind)
        assert tableaux == tuple(sorted(tableaux)), a


def test_key_labeling_matches_permutation_search_on_neighbours(closures):
    # one raise or lower move away from a key closure, many diagrams have no
    # key labeling: this pass holds the None path to the reference as well
    pairs = unlabeled = 0
    for a, (key, _) in closures.items():
        neighbours = {
            e
            for d in key
            for i in range(1, len(a) + 1)
            for e in (raise_diagram(d, i), lower_diagram(d, i))
            if e is not None
        }
        for d in sorted(neighbours):
            t = label_key.__wrapped__(d, a)
            expected = reference.label_key(d.cells, a)
            assert (t.entries if t is not None else None) == expected, (d.cells, a)
            pairs += 1
            unlabeled += expected is None
    assert (pairs, unlabeled) == (22098, 10932)


#: Every nonzero weak composition of length <= 4 with parts <= 3.
SMALL_CONTENTS = [
    a for length in range(1, 5) for a in itertools.product(range(4), repeat=length) if any(a)
]


def _diagrams_with_column_counts(a, kind):
    """Every diagram in rows 1..len(a) whose column c holds as many cells as
    a tableau of ``kind`` and content ``a`` puts labels there."""
    n, m = len(a), max(a)
    counts = [sum(p >= (m - c + 1 if kind == "lock" else c) for p in a) for c in range(1, m + 1)]
    for columns in itertools.product(*(itertools.combinations(range(1, n + 1), k) for k in counts)):
        yield Diagram(tuple((r, c) for c, rows in enumerate(columns, 1) for r in rows))


@pytest.mark.parametrize(
    "kind, labeler, expected_label, expected_valid, counts",
    [
        # label_key's rule is not re-checked by its caller: this pass holds
        # every pick, None included, to the permutation search
        ("key", label_key.__wrapped__, reference.label_key, reference.validate_kkt, (2758, 11890)),
        ("lock", label_lock, reference.label_lock, reference.validate_lkt, (1386, 13262)),
    ],
)
def test_labelings_match_reference_on_every_diagram_with_the_column_counts(
    kind, labeler, expected_label, expected_valid, counts
):
    labeled = unlabeled = 0
    for a in SMALL_CONTENTS:
        for d in _diagrams_with_column_counts(a, kind):
            t = labeler(d, a)
            expected = expected_label(d.cells, a)
            assert (t.entries if t is not None else None) == expected, (d.cells, a)
            if t is None:
                unlabeled += 1
            else:
                assert expected_valid(t.entries, a), (d.cells, a)
                labeled += 1
    assert (len(SMALL_CONTENTS), labeled, unlabeled) == (336, *counts)


def test_key_crystal_matches_relabeling_reference():
    vertices = edges = 0
    for a in dict.fromkeys(COMPOSITIONS + list(SPOT_COMPOSITIONS)):
        g = crystal_graph(a, "key")
        expected_vertices, expected_edges = reference.key_crystal(a)
        assert tuple(v.entries for v in g.vertices) == expected_vertices, a
        assert g.edges == expected_edges, a
        vertices += len(expected_vertices)
        edges += len(expected_edges)
    assert (vertices, edges) == (11738, 18944)


def test_lock_crystal_matches_label_keeping_reference():
    vertices = edges = 0
    for a in dict.fromkeys(COMPOSITIONS + list(SPOT_COMPOSITIONS)):
        g = crystal_graph(a, "lock")
        expected_vertices, expected_edges = reference.lock_crystal(a)
        assert tuple(v.entries for v in g.vertices) == expected_vertices, a
        assert g.edges == expected_edges, a
        vertices += len(expected_vertices)
        edges += len(expected_edges)
    assert (vertices, edges) == (5820, 8249)


def test_moves_pairings_and_rectification_match_definitions(closures):
    diagrams = sorted({d for key, lock in closures.values() for d in key + lock})
    for d in diagrams:
        cells = d.cells
        for i in range(1, d.max_row + 2):
            # raising moves the rightmost unpaired upper box down, lowering
            # the leftmost unpaired lower box up
            _, lower, upper = reference.vertical_pairing(cells, i)
            raised = raise_diagram(d, i)
            lowered = lower_diagram(d, i)
            if upper:
                r, c = upper[-1]
                assert raised.cells == tuple(sorted(set(cells) - {(r, c)} | {(i, c)}))
            else:
                assert raised is None
            if lower:
                r, c = lower[0]
                assert lowered.cells == tuple(sorted(set(cells) - {(r, c)} | {(i + 1, c)}))
            else:
                assert lowered is None
        for i in range(1, d.max_col + 2):
            # both rectification formulations push the box the column
            # surplus picks
            move = reference.rectify_move(cells, i)
            assert rectify_move(d.rows, i) == move
            pushed = None if move is None else Diagram(set(cells) - {move[0]} | {move[1]})
            assert rectify_by_pairing(d, i) == pushed, (cells, i)


def _pushed_by_pairing(rows, i, up=False):
    """Raising, or with ``up`` lowering, on row masks from the full vertical
    pairing that ``reference.vertical_pairing`` lists: the rightmost
    unpaired upper box moves down, the leftmost unpaired lower box up."""
    cells = {
        (r, c) for r, mask in enumerate(rows, 1)
        for c in range(1, mask.bit_length() + 1) if mask >> (c - 1) & 1
    }
    _, lower, upper = reference.vertical_pairing(cells, i)
    if not (lower if up else upper):
        return None
    (r, c), target = (lower[0], i + 1) if up else (upper[-1], i)
    moved = cells - {(r, c)} | {(target, c)}
    out = [0] * max(s for s, _ in moved)
    for s, col in moved:
        out[s - 1] |= 1 << (col - 1)
    return c, tuple(out)


def test_counted_raising_matches_the_listed_pairing(closures):
    diagrams = {d for key, lock in closures.values() for d in key + lock}
    raised = 0
    for d in diagrams:
        for i in range(1, len(d.rows) + 2):
            got = _push_unpaired(d.rows, i)
            assert got == _pushed_by_pairing(d.rows, i), (d.cells, i)
            raised += got is not None
    assert raised > len(diagrams)


masks = st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=5).filter(lambda rows: rows[-1])


@given(masks, st.integers(1, 6))
def test_counted_raising_matches_the_listed_pairing_on_any_masks(rows, i):
    rows = tuple(rows)
    assert _push_unpaired(rows, i) == _pushed_by_pairing(rows, i)


@given(masks, st.integers(1, 6))
def test_counted_lowering_matches_the_listed_pairing_on_any_masks(rows, i):
    rows = tuple(rows)
    assert _push_unpaired(rows, i, up=True) == _pushed_by_pairing(rows, i, up=True)


def _perturbations(t, rng):
    """The tableau, one with two labels exchanged, and one with a cell moved
    to an empty position, each an input the validators must judge alike."""
    entries = list(t.entries)
    yield t
    if len(entries) > 1:
        j, k = rng.sample(range(len(entries)), 2)
        swapped = entries[:]
        swapped[j], swapped[k] = (entries[j][0], entries[k][1]), (entries[k][0], entries[j][1])
        yield LabeledDiagram(tuple(swapped))
    if entries:
        occupied = {cell for cell, _ in entries}
        free = [(r, c) for r in range(1, 7) for c in range(1, 5) if (r, c) not in occupied]
        j = rng.randrange(len(entries))
        moved = entries[:j] + [(rng.choice(free), entries[j][1])] + entries[j + 1:]
        yield LabeledDiagram(tuple(moved))


def test_validators_match_condition_by_condition_checks():
    rng = random.Random(2001)
    verdicts = set()
    for a in COMPOSITIONS:
        if sum(a) > 5:
            continue
        for t in enumerate_kkt(a) + enumerate_lkt(a):
            for u in _perturbations(t, rng):
                kkt = validate_kkt(u, a)
                lkt = validate_lkt(u, a)
                assert kkt == reference.validate_kkt(u.entries, a), (u.entries, a)
                assert lkt == reference.validate_lkt(u.entries, a), (u.entries, a)
                verdicts.add((kkt, lkt))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


cell_lists = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=12)


@given(cell_lists, cell_lists)
def test_trusted_diagram_is_the_validated_one(raw, other_raw):
    checked = Diagram(tuple(raw))
    cells = tuple(sorted(set(raw)))
    rows = [0] * max((r for r, _ in cells), default=0)
    for r, c in cells:
        rows[r - 1] |= 1 << (c - 1)
    trusted = Diagram._trusted(cells, tuple(rows))
    other = Diagram(tuple(other_raw))
    assert trusted == checked and hash(trusted) == hash(checked) == hash((cells,))
    assert trusted.rows == checked.rows
    assert (trusted.max_col, weight(trusted)) == (
        max((mask.bit_length() for mask in rows), default=0),
        tuple(mask.bit_count() for mask in rows),
    )
    assert (trusted < other) == (checked < other) and (other < trusted) == (other < checked)
    assert sorted([other, trusted]) == sorted([checked, other])


labelings = st.dictionaries(
    st.tuples(st.integers(1, 6), st.integers(1, 6)), st.integers(1, 6), max_size=12
)


@given(labelings, labelings)
def test_trusted_labeled_diagram_is_the_validated_one(labels, other_labels):
    checked = LabeledDiagram(tuple(labels.items()))
    entries = tuple(sorted(labels.items()))
    other = LabeledDiagram(tuple(other_labels.items()))
    trusted = LabeledDiagram._trusted(entries, checked.diagram)
    assert trusted == checked and hash(trusted) == hash(checked) == hash((entries,))
    assert trusted.diagram == checked.diagram
    assert (trusted < other) == (checked < other) and (other < trusted) == (other < checked)
    assert sorted([other, trusted]) == sorted([checked, other])


def test_unlock_traces_match_dict_reference():
    runs = 0
    for a in dict.fromkeys(COMPOSITIONS + list(SPOT_COMPOSITIONS) + LONG_INTERLEAVED):
        for t in enumerate_lkt(a):
            _, trace = apply_unlock(t, a)
            assert trace.to_json() == reference.unlock_trace(t.entries, a), (a, t.entries)
            runs += 1
    assert runs == 5820 + 10876  # LONG_INTERLEAVED adds 10,876 lock tableaux
