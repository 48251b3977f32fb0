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
    horizontal_pairing,
    key_diagram,
    kohnert_closure,
    kohnert_move,
    label_key,
    label_lock,
    lock_diagram,
    lower_diagram,
    m_max,
    raise_diagram,
    rectify_move,
    validate_kkt,
    validate_lkt,
    vertical_pairing,
)

import reference

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
                (label_key, reference.label_key(d.cells, a)),
                (label_lock, reference.label_lock(d.cells, a)),
            ):
                t = labeler.__wrapped__(d, a)  # the search itself, not a cached answer
                assert (t.entries if t is not None else None) == expected, (labeler, d.cells, a)
                if t is not None:
                    assert t.diagram == d
            pairs += 1
    assert pairs == 16943


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


def test_moves_pairings_and_rectification_match_definitions(closures):
    diagrams = sorted({d for key, lock in closures.values() for d in key + lock})
    for d in diagrams:
        cells = d.cells
        for i in range(1, d.max_row + 2):
            moved = kohnert_move(d, i)
            expected = reference.kohnert_move(cells, i)
            assert (moved is None) == (expected is None)
            assert moved is None or moved.cells == tuple(sorted(expected))
            vp = vertical_pairing(d, i)
            expected = reference.vertical_pairing(cells, i)
            assert (vp.pairs, vp.unpaired_lower, vp.unpaired_upper) == expected
        for i in range(1, d.max_col + 2):
            hp = horizontal_pairing(d, i)
            expected = reference.horizontal_pairing(cells, i)
            assert (hp.pairs, hp.unpaired_left, hp.unpaired_right) == expected
            assert m_max(d, i) == reference.m_max(cells, i)
            assert rectify_move(d, i) == reference.rectify_move(cells, i)


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
    assert trusted.rows == checked.rows and trusted.cols == checked.cols
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
    for diagram in (None, checked.diagram):
        trusted = LabeledDiagram._trusted(entries, diagram)
        assert trusted == checked and hash(trusted) == hash(checked) == hash((entries,))
        assert trusted.diagram == checked.diagram
        assert (trusted < other) == (checked < other) and (other < trusted) == (other < checked)
        assert sorted([other, trusted]) == sorted([checked, other])


def test_unlock_traces_match_dict_reference():
    runs = 0
    for a in dict.fromkeys(COMPOSITIONS + list(SPOT_COMPOSITIONS)):
        for t in enumerate_lkt(a):
            _, trace = apply_unlock(t, a)
            assert trace.to_json() == reference.unlock_trace(t.entries, a), (a, t.entries)
            runs += 1
    assert runs == 5820
