import itertools
import re

import pytest

from kohnert import (
    Diagram,
    LabeledDiagram,
    TheoremViolation,
    enumerate_kkt,
    enumerate_lkt,
    flatten,
    key_diagram,
    kohnert_closure,
    label_key,
    label_lock,
    lock_diagram,
    lock_source_tableau,
    truncate_below,
    validate_kkt,
    validate_lkt,
    weight,
)
from kohnert.tableaux import _column_labels

import reference
from golden import (
    KKT_032,
    LKT_023,
    KEY_1021,
    LOCK_1021,
    TRUNC_103032_BELOW_5,
    UNLOCK_103032_CHAIN,
    diagram,
    tableau,
)


def small_compositions(max_len=4, max_part=3):
    for length in range(max_len + 1):
        yield from itertools.product(range(max_part + 1), repeat=length)


def test_validate_kkt_canonical_labeling():
    t = tableau((1, 1, 1), (3, 1, 3), (3, 2, 3), (4, 1, 4))
    assert validate_kkt(t, (1, 0, 2, 1))


def test_validate_kkt_empty():
    assert validate_kkt(LabeledDiagram(), (0, 0))


def test_validate_kkt_inversion_violation():
    t = tableau((1, 1, 3), (2, 1, 2))
    assert not validate_kkt(t, (0, 1, 1))


def test_validate_kkt_rejects_wrong_columns():
    # the lone 2 must be in column 1
    assert not validate_kkt(tableau((2, 2, 2)), (0, 1))


def test_validate_lkt_lock_labeling():
    t = tableau((3, 1, 3), (3, 2, 3), (3, 3, 3), (2, 2, 2), (2, 3, 2))
    assert validate_lkt(t, (0, 2, 3))


def test_validate_lkt_empty():
    assert validate_lkt(LabeledDiagram(), (0, 0))


def test_validate_lkt_column_increase_rejected():
    # a 2 above a 3 in one column breaks the strict decrease
    t = tableau((3, 1, 3), (3, 2, 3), (3, 3, 2), (2, 2, 2), (2, 3, 3))
    assert not validate_lkt(t, (0, 2, 3))


def test_label_key_unmoved_diagram():
    t = label_key(key_diagram((0, 3, 2)), (0, 3, 2))
    assert t == KKT_032[0]


def test_label_key_empty():
    assert label_key(Diagram(), (0, 0)) == LabeledDiagram()


def test_label_key_forced_row():
    assert label_key(diagram((1, 1), (1, 2)), (2, 0)) == tableau((1, 1, 1), (1, 2, 1))


def test_label_key_no_labeling():
    # flagged condition cannot hold with a cell in row 3 and only label 2
    assert label_key(diagram((3, 1)), (0, 1)) is None


def test_label_key_refuses_a_cell_right_of_the_largest_part():
    # no key string of (2,) reaches column 3
    assert label_key(Diagram(((1, 3),)), (2,)) is None


def test_label_key_cache_is_bounded():
    assert label_key.cache_info().maxsize is not None


def test_label_lock_unmoved_diagram():
    assert label_lock(lock_diagram((0, 2, 3)), (0, 2, 3)) == LKT_023[0]


def test_label_lock_source_diagram():
    t = label_lock(diagram((1, 2), (1, 3), (2, 1), (2, 2), (2, 3)), (0, 2, 3))
    assert t == LKT_023[6]


def test_label_lock_wrong_columns():
    assert label_lock(diagram((1, 1)), (0, 2, 3)) is None


def _lock_entries(d, a):
    t = label_lock(d, a)
    return None if t is None else t.entries


@pytest.mark.parametrize("cells, a, labeled", [
    (((2, 2), (2, 3), (3, 1), (3, 2), (3, 4)), (0, 2, 3), False),  # a cell right of max(a)
    (((1, 3), (2, 2), (2, 3), (3, 2), (3, 3)), (0, 2, 3), False),  # column 3 over-full
    (((2, 2), (2, 3), (3, 1), (3, 2)), (0, 2, 3), False),  # column 3 under-full
    ((), (0, 0, 0), True),  # content of all zeros
    (((1, 1),), (0, 0, 0), False),
], ids=["right_of_max", "over_full", "under_full", "zero_content", "zero_content_cell"])
def test_label_lock_edge_cases_match_reference(cells, a, labeled):
    d = Diagram(cells)
    expected = reference.label_lock(d.cells, a)
    assert (expected is not None) == labeled
    assert _lock_entries(d, a) == expected


def test_label_lock_alternating_contents_match_reference():
    # one diagram labeled for two contents in turn, so the per-content column
    # labels of one content can never serve the other
    differing = 0
    for a, b in [((0, 2, 3), (2, 0, 3)), ((1, 0, 2, 1), (0, 1, 2, 1)), ((1, 2), (2, 1))]:
        diagrams = set(kohnert_closure(lock_diagram(a))) | set(kohnert_closure(lock_diagram(b)))
        for d in sorted(diagrams):
            for c in (a, b, a, b):
                assert _lock_entries(d, c) == reference.label_lock(d.cells, c), (d.cells, c)
            both = _lock_entries(d, a), _lock_entries(d, b)
            differing += None not in both and both[0] != both[1]
    assert differing == 9  # diagrams that both contents label, differently
    assert _column_labels.cache_info().maxsize is not None  # a bounded cache


def test_column_labels_match_the_columns_each_label_fills():
    # label l fills columns 1..a_l of a key and m-a_l+1..m of a lock
    assert _column_labels.cache_info().maxsize is not None  # a bounded cache
    for a in small_compositions():
        m = max(a, default=0)
        for kind in ("key", "lock"):
            columns = [[] for _ in range(m)]
            for l, part in enumerate(a, 1):
                filled = range(1, part + 1) if kind == "key" else range(m - part + 1, m + 1)
                for c in filled:
                    columns[c - 1].append(l)
            assert _column_labels(a, kind) == tuple(map(tuple, columns)), (a, kind)


def test_enumerate_kkt_032_matches_golden():
    assert set(enumerate_kkt((0, 3, 2))) == set(KKT_032)


def test_enumerate_lkt_023_matches_golden():
    assert set(enumerate_lkt((0, 2, 3))) == set(LKT_023)


def test_enumerate_kkt_1021_matches_crystal_vertices():
    assert set(enumerate_kkt((1, 0, 2, 1))) == set(KEY_1021.values())


def test_enumerate_lkt_1021_matches_crystal_vertices():
    assert set(enumerate_lkt((1, 0, 2, 1))) == set(LOCK_1021.values())


def test_enumerate_empty_content():
    assert enumerate_kkt((0, 0)) == (LabeledDiagram(),)
    assert enumerate_lkt((0, 0)) == (LabeledDiagram(),)


def test_enumerate_lkt_no_zero_parts_is_singleton():
    assert len(enumerate_lkt((2, 1))) == 1


def test_lock_source_tableau():
    assert lock_source_tableau((0, 2, 3)) == LKT_023[6]
    assert lock_source_tableau((0, 0)) == LabeledDiagram()
    t = lock_source_tableau((2, 1))
    assert t == label_lock(lock_diagram((2, 1)), (2, 1))


def test_lock_source_tableau_labels_only_its_diagram(monkeypatch):
    import kohnert.tableaux as tableaux

    labeled = []
    monkeypatch.setattr(tableaux, "label_lock", lambda d, a: labeled.append(d) or label_lock(d, a))
    for a in [(0, 2, 3), (1, 0, 3, 0, 3, 2)]:
        labeled.clear()
        t = lock_source_tableau(a)
        assert labeled == [t.diagram], a
    monkeypatch.setattr(tableaux, "label_lock", lambda d, a: None)
    with pytest.raises(TheoremViolation, match="has no lock labeling"):
        lock_source_tableau((0, 2, 3))


def test_enumeration_refuses_a_closure_diagram_with_no_labeling(monkeypatch):
    import kohnert.tableaux as tableaux

    a = (0, 2, 3)
    first = tableaux.family_closure(a, "lock")[0]
    monkeypatch.setattr(tableaux, "label_lock", lambda d, a: None)
    tableaux.enumerate_tableaux.cache_clear()  # a cached enumeration would skip the fault
    message = f"closure diagram {first.cells} of {a} has no lock labeling"
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        tableaux.enumerate_tableaux(a, "lock")
    tableaux.enumerate_tableaux.cache_clear()


@pytest.mark.parametrize(
    "a",
    [[0, 2, 3], (0, -1, 2), (0, False, 2), (True, 2), (0.0, 2), (2.0, 1), (1, 2.5)],
)
def test_lock_source_tableau_refuses_bad_parts_before_flattening(monkeypatch, a):
    import kohnert.tableaux as tableaux

    # flatten drops a negative part, a False and a 0.0, so they must be refused before it runs
    monkeypatch.setattr(tableaux, "flatten", lambda b: pytest.fail(f"flattened {b}"))
    with pytest.raises(ValueError, match="a weak composition is a tuple of nonnegative integer"):
        lock_source_tableau(a)


def test_truncate_below():
    t = UNLOCK_103032_CHAIN[0]
    assert truncate_below(t, 5) == TRUNC_103032_BELOW_5
    assert truncate_below(t, 1) == LabeledDiagram()
    assert truncate_below(t, 7) == t
    for bound in range(1, 8):  # each cut holds the diagram of its own cells, masks too
        cut = truncate_below(t, bound)
        d = Diagram(tuple(cell for cell, _ in cut.entries))
        assert (cut.diagram, cut.diagram.rows) == (d, d.rows)


def test_truncation_of_lkt_keeps_lock_conditions():
    # Truncation preserves all four lock conditions in the column frame of
    # the original content; validate_lkt against the truncated content then
    # holds exactly when a part of maximal size survives the cut.
    a = (1, 0, 3, 0, 3, 2)
    m = max(a)
    for t in enumerate_lkt(a)[:25]:
        for bound in range(1, len(a) + 2):
            cut = truncate_below(t, bound)
            cut_content = tuple(p if i + 1 < bound else 0 for i, p in enumerate(a))
            for i, part in enumerate(cut_content, start=1):
                cols = sorted(c for _, c in reference._strings(cut.entries).get(i, ()))
                assert cols == (list(range(m - part + 1, m + 1)) if part else [])
            assert all(l >= r for (r, _), l in cut.entries)
            if max(cut_content, default=0) == m or not cut.entries:
                assert validate_lkt(cut, cut_content)


def test_unique_labelings_across_small_range():
    # the permutation search asserts that no second key labeling exists, and
    # the lock labeling's column order is forced, so a clean sweep certifies
    # uniqueness over the whole range
    for a in small_compositions():
        for d in kohnert_closure(key_diagram(a)):
            assert label_key(d, a) is not None
            assert reference.label_key(d.cells, a) == label_key(d, a).entries
        for d in kohnert_closure(lock_diagram(a)):
            assert label_lock(d, a) is not None


def test_labelings_have_content_a():
    for a in [(0, 3, 2), (1, 0, 2, 1), (0, 2, 3), (2, 1)]:
        for t in enumerate_kkt(a) + enumerate_lkt(a):
            labels = [l for _, l in t.entries]
            assert tuple(labels.count(i) for i in range(1, len(a) + 1)) == a
            assert max(labels, default=0) <= len(a)


def test_lkt_count_matches_closure():
    for a in [(0, 2, 3), (1, 0, 2, 1), (0, 3, 4)]:
        closure = kohnert_closure(lock_diagram(a))
        tableaux = enumerate_lkt(a)
        assert len(tableaux) == len(closure)
        assert {t.diagram for t in tableaux} == set(closure)


@pytest.mark.parametrize(
    "entries",
    [
        (((1, 1), 1), ((1, 1), 2)),
        (((1, 1), 0),),
        (((1, 1), 2.7),),
        (((1, 1), True),),
        (((1, 1.9), 1),),
        (((True, 1), 1),),
        # int() would truncate these rows onto lock_source_tableau((0, 2, 3))
        tuple(((r + 0.5, c), l) for (r, c), l in lock_source_tableau((0, 2, 3)).entries),
    ],
)
def test_labeled_diagram_rejects_duplicates_and_bad_labels(entries):
    with pytest.raises(ValueError):
        LabeledDiagram(entries)


def test_labeled_diagram_json_roundtrip():
    t = KKT_032[4]
    assert LabeledDiagram.from_json(t.to_json()) == t
    with pytest.raises(ValueError):
        LabeledDiagram.from_json([[1, 1]])


def test_weight_of_lock_source_is_flatten():
    for a in [(0, 2, 3), (1, 0, 3, 0, 3, 2), (0, 0, 2)]:
        assert weight(lock_source_tableau(a).diagram) == flatten(a)


def test_ascii_tableau():
    art = tableau((2, 1, 3), (1, 1, 1), (1, 2, 3)).ascii()
    assert art.splitlines() == ["3 .", "1 3", "---"]
