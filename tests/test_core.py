import re

import pytest
from hypothesis import given, strategies as st

from kohnert import (
    Diagram,
    crystal_graph,
    enumerate_tableaux,
    family_closure,
    flatten,
    key_diagram,
    kohnert_closure,
    lock_diagram,
    padded_weight,
    polynomial,
    unlock_map,
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


BUILDERS = {
    "key_diagram": key_diagram,
    "lock_diagram": lock_diagram,
    "enumerate_key": lambda a: enumerate_tableaux(a, "key"),
    "enumerate_lock": lambda a: enumerate_tableaux(a, "lock"),
    "polynomial_key": lambda a: polynomial(a, "key"),
    "polynomial_lock": lambda a: polynomial(a, "lock"),
    "crystal_key": lambda a: crystal_graph(a, "key"),
    "crystal_lock": lambda a: crystal_graph(a, "lock"),
    "unlock_map": unlock_map,
}


@pytest.mark.parametrize("a", [(-1, 2), (2, -1), (1.5, 1), (True, 2), (1, True)])
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_a_part_that_is_negative_or_not_an_int_is_a_value_error(build, a):
    # bad input, not a failed theorem: no TheoremViolation, no TypeError
    with pytest.raises(ValueError, match=r"nonnegative integer parts, got \("):
        build(a)


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_a_float_part_is_refused_when_its_int_twin_is_cached(build):
    # a cache keys by equality and (1, 2.0) == (True, 2) == (1, 2), so the
    # parts are checked before the lookup, not only on a miss; and before
    # trailing zeros are stripped, which would drop a 0.0 or a False
    build((1, 2))
    build((1, 0))
    for twin in ((1, 2.0), (True, 2), (1, 0.0), (1, False)):
        with pytest.raises(ValueError, match=r"nonnegative integer parts, got \("):
            build(twin)


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_a_list_composition_is_a_value_error(build):
    # a list cannot key a cache, so it is refused as bad input, not met with a TypeError
    with pytest.raises(ValueError, match=re.escape("tuple of nonnegative integer parts, got [0, 1]")):
        build([0, 1])


@pytest.mark.parametrize("a", [(), (1,), (0, 2), (1, 0, 2, 1), (2, 0, 1, 0), (1, 0, 3, 0, 3, 2)])
def test_a_padded_content_shares_its_stripped_contents_results(a):
    """Trailing zero parts label nothing: a and a + (0,) get the very same
    tableaux and unlock map, and crystals with the same vertices and edges
    whose records carry the content asked for."""
    padded = a + (0,)
    assert unlock_map(padded) is unlock_map(a)
    for kind in ("key", "lock"):
        assert enumerate_tableaux(padded, kind) is enumerate_tableaux(a, kind)
        g, h = crystal_graph(a, kind), crystal_graph(padded, kind)
        assert h.vertices is g.vertices and h.edges == g.edges
        assert (g.content, h.content) == (a, padded)
        assert polynomial(padded, kind).terms == tuple(
            (exp + (0,), c) for exp, c in polynomial(a, kind).terms
        )


def test_kohnert_move_single_cell_falls():
    expected = {diagram((3, 1)), diagram((2, 1)), diagram((1, 1))}
    assert set(kohnert_closure(diagram((3, 1)))) == expected


def test_kohnert_move_jumps_over_cells():
    d = diagram((1, 1), (3, 1))
    assert set(kohnert_closure(d)) == {d, diagram((1, 1), (2, 1))}


def test_kohnert_move_blocked_column():
    d = diagram((1, 1), (2, 1))
    assert kohnert_closure(d) == (d,)


def test_kohnert_move_empty_row():
    d = diagram((1, 1), (1, 3))  # nothing above row 1 moves
    assert kohnert_closure(d) == (d,)


def test_kohnert_move_takes_rightmost():
    # from key (0, 2), the cell (2, 2) drops first, not (2, 1)
    assert diagram((1, 2), (2, 1)) in kohnert_closure(key_diagram((0, 2)))
    assert diagram((1, 1), (2, 2)) not in kohnert_closure(key_diagram((0, 2)))


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


def test_family_closure_is_the_closure_of_the_key_or_lock_diagram():
    for a in [(), (0, 2), (1, 0, 2, 1), (0, 2, 3)]:
        assert family_closure(a, "key") == kohnert_closure(key_diagram(a))
        assert family_closure(a, "lock") == kohnert_closure(lock_diagram(a))


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


@pytest.mark.parametrize(
    "cells",
    # int() would read 1.9 and True as 1, giving a diagram equal to a real one
    [((0, 1),), ((1, 0),), ((1, 1.9),), ((1, 1), (2, True)), ((1.0, 1),), (("1", 1),)],
)
def test_diagram_rejects_bad_cells(cells):
    with pytest.raises(ValueError, match="cells must be int pairs with row >= 1 and col >= 1"):
        Diagram(cells)


def test_diagram_canonical_order_and_json():
    d = Diagram(((2, 1), (1, 2), (1, 1), (2, 1)))
    assert d.cells == ((1, 1), (1, 2), (2, 1))
    assert d.to_json() == [[1, 1], [1, 2], [2, 1]]


def test_ascii_marks_rows_top_first():
    art = diagram((1, 1), (2, 2)).ascii()
    assert art.splitlines() == [". x", "x .", "---"]
