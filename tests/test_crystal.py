import inspect
import itertools
import re

import pytest
from hypothesis import given, strategies as st

import kohnert.crystal as crystal
from kohnert import (
    SPOT_COMPOSITIONS,
    Diagram,
    SweepRange,
    TheoremViolation,
    crystal_counts,
    crystal_graph,
    enumerate_tableaux,
    family_closure,
    is_connected,
    key_diagram,
    kohnert_closure,
    lock_diagram,
    lower_diagram,
    lower_kkt,
    lower_lkt,
    lower_tableau,
    polynomial,
    raise_diagram,
    raise_kkt,
    raise_lkt,
    raise_tableau,
)

from golden import (
    KEY_1021,
    KEY_1021_EDGES,
    LKT_034_CHAIN,
    LOCK_1021,
    LOCK_1021_EDGES,
    VPAIR_DIAGRAM,
    VPAIR_PAIRS,
    VPAIR_UNPAIRED_UPPER,
    diagram,
)
from reference import vertical_pairing

small_diagrams = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=10
).map(lambda cells: Diagram(tuple(cells)))


def test_vertical_pairing_same_column():
    pairs, lower, upper = vertical_pairing(diagram((2, 1), (3, 1), (3, 2)).cells, 2)
    assert pairs == (((2, 1), (3, 1)),)
    assert upper == ((3, 2),)
    assert lower == ()


def test_vertical_pairing_no_partner_to_the_left():
    pairs, lower, upper = vertical_pairing(diagram((2, 2), (3, 1)).cells, 2)
    assert pairs == ()
    assert upper == ((3, 1),)
    assert lower == ((2, 2),)


def test_vertical_pairing_wide_example():
    pairs, _, upper = vertical_pairing(VPAIR_DIAGRAM.cells, 2)
    assert pairs == VPAIR_PAIRS
    assert upper == VPAIR_UNPAIRED_UPPER


def test_vertical_pairing_partitions_both_rows():
    for i in (1, 2, 3):
        pairs, lower, upper = vertical_pairing(VPAIR_DIAGRAM.cells, i)
        seen = set(lower) | set(upper)
        for low, up in pairs:
            seen.update((low, up))
        expected = {cell for cell in VPAIR_DIAGRAM.cells if cell[0] in (i, i + 1)}
        assert seen == expected


def test_raise_diagram_chain_from_wide_example():
    d1 = raise_diagram(VPAIR_DIAGRAM, 2)
    assert d1 == Diagram(set(VPAIR_DIAGRAM.cells) - {(3, 8)} | {(2, 8)})
    d2 = raise_diagram(d1, 2)
    assert d2 == Diagram(set(d1.cells) - {(3, 2)} | {(2, 2)})
    assert raise_diagram(d2, 2) is None


def test_raise_diagram_simple():
    assert raise_diagram(diagram((2, 2), (3, 1)), 2) == diagram((2, 1), (2, 2))
    assert raise_diagram(Diagram(), 1) is None


def test_lower_diagram():
    assert lower_diagram(diagram((1, 1)), 1) == diagram((2, 1))
    assert lower_diagram(diagram((1, 1), (2, 1)), 1) is None
    d = diagram((2, 2), (3, 1))
    assert lower_diagram(raise_diagram(d, 2), 2) == d


@given(small_diagrams, st.integers(1, 5))
def test_raise_lower_mutual_inverse(d, i):
    raised = raise_diagram(d, i)
    if raised is not None:
        assert lower_diagram(raised, i) == d
    lowered = lower_diagram(d, i)
    if lowered is not None:
        assert raise_diagram(lowered, i) == d


@given(small_diagrams, st.integers(1, 5))
def test_raise_moves_weight_down_one_row(d, i):
    raised = raise_diagram(d, i)
    if raised is not None:
        top = d.max_row + 1
        from kohnert import padded_weight

        before = list(padded_weight(d, top))
        after = list(padded_weight(raised, top))
        before[i - 1] += 1
        before[i] -= 1
        assert after == before


def test_key_crystal_1021_matches_golden():
    g = crystal_graph((1, 0, 2, 1), "key")
    assert set(g.vertices) == set(KEY_1021.values())
    index = {v: k for k, v in enumerate(g.vertices)}
    expected = {
        (index[KEY_1021[s]], index[KEY_1021[t]], c) for s, t, c in KEY_1021_EDGES
    }
    assert set(g.edges) == expected


def test_lock_crystal_1021_matches_golden():
    g = crystal_graph((1, 0, 2, 1), "lock")
    assert set(g.vertices) == set(LOCK_1021.values())
    index = {v: k for k, v in enumerate(g.vertices)}
    expected = {
        (index[LOCK_1021[s]], index[LOCK_1021[t]], c) for s, t, c in LOCK_1021_EDGES
    }
    assert set(g.edges) == expected


def test_raise_lkt_chain_034_stops_early():
    a = (0, 3, 4)
    t0, t1, t2 = LKT_034_CHAIN
    assert raise_lkt(t0, a, 2) == t1
    assert raise_lkt(t1, a, 2) == t2
    assert raise_lkt(t2, a, 2) is None
    # the bare diagram can still be raised; only the labels block it
    assert raise_diagram(t2.diagram, 2) is not None


def test_raise_empty_tableau():
    from kohnert import LabeledDiagram

    empty = LabeledDiagram()
    assert raise_kkt(empty, (0, 0), 1) is None
    assert raise_lkt(empty, (0, 0), 1) is None


def test_single_highest_weight_vertex():
    for a in [(1, 0, 2, 1), (0, 2, 3), (0, 3, 2)]:
        for kind, raiser in (("key", raise_kkt), ("lock", raise_lkt)):
            g = crystal_graph(a, kind)
            sources = [
                v
                for v in g.vertices
                if all(raiser(v, a, i) is None for i in range(1, len(a)))
            ]
            assert len(sources) == 1


def test_kkt_raising_count_equals_unpaired_boxes():
    a = (1, 0, 2, 1)
    for t in crystal_graph(a, "key").vertices:
        for i in range(1, len(a)):
            unpaired = len(vertical_pairing(t.diagram.cells, i)[2])
            steps = 0
            cur = t
            while (nxt := raise_kkt(cur, a, i)) is not None:
                cur = nxt
                steps += 1
            assert steps == unpaired


def test_lkt_raising_count_at_most_unpaired_boxes():
    a = (0, 3, 4)
    for t in crystal_graph(a, "lock").vertices:
        for i in range(1, len(a)):
            unpaired = len(vertical_pairing(t.diagram.cells, i)[2])
            steps = 0
            cur = t
            while (nxt := raise_lkt(cur, a, i)) is not None:
                cur = nxt
                steps += 1
            assert steps <= unpaired


def test_tableau_raise_lower_contracts():
    for a in [(1, 0, 2, 1), (0, 2, 3)]:
        for kind, raiser, lowerer in (
            ("key", raise_kkt, lower_kkt),
            ("lock", raise_lkt, lower_lkt),
        ):
            for t in crystal_graph(a, kind).vertices:
                for i in range(1, len(a)):
                    raised = raiser(t, a, i)
                    if raised is not None:
                        assert lowerer(raised, a, i) == t
                    lowered = lowerer(t, a, i)
                    if lowered is not None:
                        assert raiser(lowered, a, i) == t


def test_lowering_is_the_reversed_edge():
    # the intertwining check reads both operators off the crystal edges
    edges = 0
    for a in dict.fromkeys([*SweepRange(4, 3).compositions(), *SPOT_COMPOSITIONS]):
        for kind in ("key", "lock"):
            g = crystal_graph(a, kind)
            index = {v: k for k, v in enumerate(g.vertices)}
            lowerings = {
                (u, index[v], i)
                for u, t in enumerate(g.vertices)
                for i in range(1, len(a))
                if (v := lower_tableau(t, a, i, kind)) is not None
            }
            assert lowerings == set(g.edges), (a, kind)
            if kind == "key":
                for u, v, i in g.edges:
                    assert raise_kkt(g.vertices[v], a, i) == g.vertices[u], (a, i)
            edges += len(g.edges)
    assert edges == 6034


def test_lock_spine_lowering():
    a = (1, 0, 2, 1)
    K, L, M = LOCK_1021["K"], LOCK_1021["L"], LOCK_1021["M"]
    assert lower_lkt(K, a, 2) == L
    assert lower_lkt(L, a, 2) == M
    assert lower_lkt(M, a, 2) is None
    assert lower_lkt(LOCK_1021["I"], a, 3) == K


def test_lock_raise_none_iff_relabel_fails():
    from kohnert import label_lock

    for a in [(0, 3, 4), (1, 0, 2, 1), (0, 2, 3)]:
        for t in crystal_graph(a, "lock").vertices:
            for i in range(1, len(a)):
                blocked = (
                    raise_lkt(t, a, i) is None
                    and vertical_pairing(t.diagram.cells, i)[2]
                )
                if blocked:
                    raised = raise_diagram(t.diagram, i)
                    assert label_lock(raised, a) is None


def test_edges_unique_per_color():
    for a in [(1, 0, 2, 1), (0, 3, 2)]:
        for kind in ("key", "lock"):
            g = crystal_graph(a, kind)
            outgoing = {(src, c) for src, _, c in g.edges}
            incoming = {(dst, c) for _, dst, c in g.edges}
            assert len(outgoing) == len(g.edges)
            assert len(incoming) == len(g.edges)


def _check_raising_into_a_dropped_vertex(monkeypatch, kind):
    """Enumerate the (1,0,2,1) tableaux of ``kind`` without one vertex that
    another raises to: building the crystal must name it in a TheoremViolation."""
    a = (1, 0, 2, 1)
    g = crystal_graph(a, kind)
    raisable = {v for _, v, _ in g.edges}  # vertices that are not highest weight
    dropped = g.vertices[next(u for u, _, _ in g.edges if u in raisable)]
    monkeypatch.setattr(
        crystal, "enumerate_tableaux", lambda a, kind: tuple(v for v in g.vertices if v != dropped)
    )
    message = f"raised {kind} diagram {dropped.diagram.cells} is not in the Kohnert closure of {a}"
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        crystal.crystal_graph.__wrapped__(a, kind)


def test_key_crystal_raising_out_of_the_vertices_is_a_theorem_violation(monkeypatch):
    _check_raising_into_a_dropped_vertex(monkeypatch, "key")


def test_lock_crystal_raising_out_of_the_vertices_is_a_theorem_violation(monkeypatch):
    _check_raising_into_a_dropped_vertex(monkeypatch, "lock")


def test_key_raising_to_a_diagram_with_no_labeling_is_a_theorem_violation(monkeypatch):
    a = (1, 0, 2, 1)
    g = crystal_graph(a, "key")
    u, v, color = g.edges[0]  # edges run along lowering: raising v by color gives u
    monkeypatch.setattr(crystal, "label_key", lambda d, a: None)
    message = f"raised key diagram {g.vertices[u].diagram.cells} lost its labeling for {a}"
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        raise_tableau(g.vertices[v], a, color, "key")


# (0, 0, 3, 1, 2)'s lock crystal has two sources; (1, 0, 2, 0, 0) is padded
COUNTED = [*SweepRange(4, 3).compositions(), *SPOT_COMPOSITIONS,
           (), (0, 0), (1, 0, 2, 0, 0), (0, 0, 3, 1, 2)]


@pytest.mark.parametrize("kind", ["key", "lock"])
def test_counts_equal_the_graph_counts(kind):
    for a in dict.fromkeys(COUNTED):
        g = crystal_graph(a, kind)
        assert crystal_counts(a, kind) == (len(g.vertices), len(g.edges)), (a, kind)


def test_the_counted_lock_crystal_may_have_two_sources():
    g = crystal_graph((0, 0, 3, 1, 2), "lock")
    raisable = {v for _, v, _ in g.edges}
    assert len(g.vertices) - len(raisable) == 2
    assert crystal_counts((0, 0, 3, 1, 2), "lock") == (72, 133)


def test_counting_refuses_what_the_graph_refuses():
    for kind in ("kkt", "Key", ""):
        with pytest.raises(ValueError, match="kind must be 'key' or 'lock'"):
            crystal_counts((1, 0, 2, 1), kind)
    for a in ([1, 2], (1, -1), (1, 2.0), (True, 2)):
        with pytest.raises(ValueError, match="a weak composition is a tuple"):
            crystal_counts(a, "lock")


def test_a_changed_lock_stop_rule_changes_the_graph_and_the_counts(monkeypatch):
    """Plant a wrong stop rule, one that also stops for a larger label to the
    right: the graph and the counts both run the one rule, so both change."""
    source = inspect.getsource(crystal._lock_stops)
    mutated = source.replace("label(col) == moving", "label(col) >= moving")
    assert mutated != source
    a = (0, 3, 2)
    compositions = list(SweepRange(4, 3).compositions())
    before = {b: crystal_graph(b, "lock").edges for b in compositions}
    counts = crystal_counts(a, "lock")
    namespace = dict(vars(crystal))
    exec(mutated, namespace)
    monkeypatch.setattr(crystal, "_lock_stops", namespace["_lock_stops"])
    assert crystal.crystal_graph.__wrapped__(a, "lock").edges != before[a]
    assert crystal_counts(a, "lock") != counts
    changed = [b for b in compositions
               if crystal.crystal_graph.__wrapped__(b, "lock").edges != before[b]]
    assert len(changed) == 66


@pytest.mark.parametrize("a", [(1, 0, 2, 1), (1, 0, 2, 1, 0, 0)])
@pytest.mark.parametrize("kind", ["key", "lock"])
def test_crystal_vertices_are_the_enumeration(a, kind):
    # the intertwining check reads unlock_map's positions as vertex indices;
    # from a cold crystal cache, since another test may have cleared the enumeration's
    crystal_graph.cache_clear()
    vertices, tableaux = crystal_graph(a, kind).vertices, enumerate_tableaux(a, kind)
    assert len(vertices) == len(tableaux)
    assert all(v is t for v, t in zip(vertices, tableaux))


def test_connectivity():
    assert is_connected(crystal_graph((1, 0, 2, 1), "lock"))
    assert is_connected(crystal_graph((1, 0, 2, 1), "key"))
    assert is_connected(crystal_graph((0, 0), "key"))


def test_disconnected_graph_detected():
    from kohnert import CrystalGraph, LabeledDiagram

    g = CrystalGraph(
        "key",
        (1, 1),
        (LabeledDiagram((((1, 1), 1),)), LabeledDiagram((((2, 1), 2),))),
        (),
    )
    assert not is_connected(g)


def test_colors_for_empty_rows_yield_nothing():
    a = (2, 0, 0)
    g = crystal_graph(a, "key")
    assert all(c in (1, 2) for _, _, c in g.edges)


def test_dot_and_json_export():
    g = crystal_graph((1, 0, 2, 1), "lock")
    dot = g.to_dot()
    assert dot.startswith("digraph crystal {") and dot.endswith("}")
    assert dot.count("->") == len(g.edges)
    data = g.to_json()
    assert len(data["vertices"]) == 5
    assert sorted(c for _, _, c in data["edges"]) == [2, 2, 2, 3]


def test_closure_diagram_sweep_inverse_contract():
    for a in itertools.product(range(3), repeat=3):
        for seed in (key_diagram(a), lock_diagram(a)):
            for d in kohnert_closure(seed):
                for i in range(1, 4):
                    raised = raise_diagram(d, i)
                    if raised is not None:
                        assert lower_diagram(raised, i) == d
                    lowered = lower_diagram(d, i)
                    if lowered is not None:
                        assert raise_diagram(lowered, i) == d


FAMILY_CALLS = {
    "crystal_graph": lambda kind: crystal_graph((1, 0, 2, 1), kind),
    "enumerate_tableaux": lambda kind: enumerate_tableaux((1, 0, 2, 1), kind),
    "family_closure": lambda kind: family_closure((1, 0, 2, 1), kind),
    "polynomial": lambda kind: polynomial((1, 0, 2, 1), kind),
    "lower_tableau": lambda kind: lower_tableau(KEY_1021["A"], (1, 0, 2, 1), 1, kind),
    "raise_tableau": lambda kind: raise_tableau(KEY_1021["A"], (1, 0, 2, 1), 1, kind),
}


@pytest.mark.parametrize("name", FAMILY_CALLS)
@pytest.mark.parametrize("kind", ["kkt", "Key", "", None])
def test_unknown_kind_is_a_value_error(name, kind):
    with pytest.raises(ValueError, match="kind must be 'key' or 'lock'"):
        FAMILY_CALLS[name](kind)
