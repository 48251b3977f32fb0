import pytest
from hypothesis import given, strategies as st

from kohnert import (
    Diagram,
    flatten,
    key_diagram,
    kohnert_closure,
    kohnert_move,
    lock_diagram,
    padded_weight,
    weight,
)

from golden import diagram

small_diagrams = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=10
).map(lambda cells: Diagram(tuple(cells)))


def test_weight_empty():
    assert weight(Diagram()) == ()


def test_weight_key_diagram_032():
    assert weight(diagram((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))) == (0, 3, 2)


def test_weight_nine_cell_lock_kohnert_diagram():
    d = diagram((1, 3), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (5, 3))
    assert weight(d) == (1, 1, 3, 1, 3)


def test_padded_weight():
    d = diagram((2, 1))
    assert padded_weight(d, 4) == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        padded_weight(d, 1)


def test_key_diagram():
    assert key_diagram((0, 0)) == Diagram()
    assert key_diagram((0, 3, 2)) == diagram((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
    assert key_diagram((1, 0, 2, 1)) == diagram((1, 1), (3, 1), (3, 2), (4, 1))


def test_lock_diagram():
    assert lock_diagram((0, 0)) == Diagram()
    assert lock_diagram((0, 2, 3)) == diagram((2, 2), (2, 3), (3, 1), (3, 2), (3, 3))
    assert lock_diagram((1, 0, 2, 1)) == diagram((1, 2), (3, 1), (3, 2), (4, 2))


@given(st.lists(st.integers(0, 4), max_size=5).map(tuple))
def test_key_and_lock_diagrams_have_weight_a(a):
    n = len(a)
    assert padded_weight(key_diagram(a), n) == a
    assert padded_weight(lock_diagram(a), n) == a


def test_kohnert_move_single_cell_falls():
    assert kohnert_move(diagram((3, 1)), 3) == diagram((2, 1))


def test_kohnert_move_jumps_over_cells():
    assert kohnert_move(diagram((1, 1), (3, 1)), 3) == diagram((1, 1), (2, 1))


def test_kohnert_move_blocked_column():
    assert kohnert_move(diagram((1, 1), (2, 1)), 2) is None


def test_kohnert_move_empty_row():
    assert kohnert_move(diagram((1, 1)), 5) is None


def test_kohnert_move_takes_rightmost():
    assert kohnert_move(key_diagram((0, 2)), 2) == diagram((1, 2), (2, 1))


def test_closure_of_empty():
    assert kohnert_closure(Diagram()) == (Diagram(),)


def test_closure_counts_match_tableau_enumerations():
    assert len(kohnert_closure(key_diagram((0, 3, 2)))) == 9
    assert len(kohnert_closure(lock_diagram((0, 2, 3)))) == 7


def test_closure_of_key_02():
    expected = {
        key_diagram((0, 2)),
        diagram((1, 2), (2, 1)),
        diagram((1, 1), (1, 2)),
    }
    assert set(kohnert_closure(key_diagram((0, 2)))) == expected


def test_closure_contains_seed():
    d = key_diagram((1, 0, 2, 1))
    assert d in kohnert_closure(d)


def test_nonzero_parts_lock_closure_is_singleton():
    for a in [(2, 1), (1, 1, 1), (3, 2, 2)]:
        assert kohnert_closure(lock_diagram(a)) == (lock_diagram(a),)


def test_flatten():
    assert flatten((1, 0, 3, 0, 3, 2)) == (1, 3, 3, 2)
    assert flatten((0, 0)) == ()
    assert flatten((0, 2, 3)) == (2, 3)


@given(small_diagrams, st.integers(1, 6))
def test_move_preserves_cell_count(d, row):
    moved = kohnert_move(d, row)
    if moved is not None:
        assert len(moved) == len(d)
        assert moved != d


@given(small_diagrams)
def test_closure_invariants(d):
    closure = kohnert_closure(d)
    assert d in closure
    top = max(len(weight(d)), 1)
    reference = tuple(reversed(padded_weight(d, top)))
    for e in closure:
        assert len(e) == len(d)
        # the seed's weight dominates every reachable weight read right to left
        assert tuple(reversed(padded_weight(e, top))) <= reference


def test_diagram_rejects_bad_cells():
    with pytest.raises(ValueError):
        Diagram(((0, 1),))
    with pytest.raises(ValueError):
        Diagram(((1, 0),))


def test_diagram_canonical_order_and_json():
    d = Diagram(((2, 1), (1, 2), (1, 1), (2, 1)))
    assert d.cells == ((1, 1), (1, 2), (2, 1))
    assert d.to_json() == [[1, 1], [1, 2], [2, 1]]
    assert Diagram.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        Diagram.from_json([[1]])
    with pytest.raises(ValueError):
        Diagram.from_json([[1, True]])


def test_ascii_marks_rows_top_first():
    art = diagram((1, 1), (2, 2)).ascii()
    assert art.splitlines() == [". x", "x .", "---"]
