import ast
import functools
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import kohnert.core
import kohnert.crystal
import kohnert.unlock as unlock_module
from kohnert import (
    Diagram,
    LabeledDiagram,
    SPOT_COMPOSITIONS,
    TheoremViolation,
    apply_unlock,
    build_schedule,
    enumerate_kkt,
    enumerate_lkt,
    flatten,
    key_diagram,
    kohnert_closure,
    lock_diagram,
    lock_source_tableau,
    lower_diagram,
    raise_diagram,
    rectify,
    rectify_by_pairing,
    rectify_move,
    rectify_walk,
    schedule_groups,
    unlock_image,
    unlock_op,
    weight,
)

import reference
from golden import (
    KEY_1021,
    LOCK_1021,
    LONG_INTERLEAVED,
    RECT_103032_CHAIN,
    UNLOCK_103032_CHAIN,
    UNLOCK_103032_STEPS,
    diagram,
    tableau,
)

small_diagrams = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=10
).map(lambda cells: Diagram(tuple(cells)))


def test_horizontal_pairing_lock_023():
    pairs, unpaired_left, unpaired_right = reference.horizontal_pairing(
        lock_diagram((0, 2, 3)).cells, 1
    )
    assert pairs == (((3, 1), (3, 2)),)
    assert unpaired_right == ((2, 2),)
    assert unpaired_left == ()


def test_horizontal_pairing_missing_right_column():
    pairs, unpaired_left, unpaired_right = reference.horizontal_pairing(
        diagram((1, 2), (2, 2), (3, 2)).cells, 2
    )
    assert pairs == ()
    assert unpaired_right == ()
    assert unpaired_left == ((3, 2), (2, 2), (1, 2))


def test_horizontal_pairing_rect_chain_start():
    pairs, _, unpaired_right = reference.horizontal_pairing(RECT_103032_CHAIN[0].cells, 2)
    assert set(pairs) == {((3, 2), (3, 3)), ((5, 2), (5, 3)), ((4, 2), (2, 3))}
    assert unpaired_right == ((1, 3),)


def test_m_statistic_empty():
    assert reference.m_statistic(Diagram().cells, 1, 1) == 0


def test_m_statistic_lock_023():
    cells = lock_diagram((0, 2, 3)).cells
    assert [reference.m_statistic(cells, 1, r) for r in (1, 2, 3)] == [1, 1, 0]


def test_rectify_empty_right_column():
    d = diagram((1, 1), (2, 1))
    assert [reference.m_statistic(d.cells, 1, r) for r in (1, 2, 3)] == [-2, -1, 0]
    assert rectify_move(d.rows, 1) is None


def test_rectify_lock_023():
    d = lock_diagram((0, 2, 3))
    assert rectify_move(d.rows, 1) == ((2, 2), (2, 1))
    assert rectify_move(list(d.rows), 1) == ((2, 2), (2, 1))  # a mutable shadow
    assert rectify(d, 1) == Diagram(set(d.cells) - {(2, 2)} | {(2, 1)})


def test_rectify_empty():
    assert rectify(Diagram(), 1) is None


def test_rectification_chain_103032():
    chain = RECT_103032_CHAIN
    for idx, before, after in zip((2, 1, 1, 2), chain, chain[1:]):
        assert rectify(before, idx) == after


def test_rectify_walk_follows_the_chain_and_stops_after_none():
    chain = RECT_103032_CHAIN
    moves, rows = rectify_walk(chain[0].rows, (2, 1, 1, 2))
    assert moves == [rectify_move(d.rows, i) for d, i in zip(chain, (2, 1, 1, 2))]
    assert tuple(rows) == chain[-1].rows
    # nothing to push ends the walk: the index 0 after it, a ValueError if
    # read, is never read
    d = diagram((1, 1), (2, 1))
    assert rectify_walk(d.rows, (1, 0)) == ([None], list(d.rows))


def test_rectify_agrees_with_pairing_formulation_on_closures():
    for a in itertools.product(range(3), repeat=3):
        for seed in (key_diagram(a), lock_diagram(a)):
            for d in kohnert_closure(seed):
                for i in range(1, d.max_col + 2):
                    assert rectify(d, i) == rectify_by_pairing(d, i)


@given(small_diagrams, st.integers(1, 5))
def test_rectify_agrees_with_pairing_formulation_random(d, i):
    assert rectify(d, i) == rectify_by_pairing(d, i)


def test_rectify_agrees_with_pairing_seeded_batch():
    rng = random.Random(20257)
    box = [(r, c) for r in range(1, 6) for c in range(1, 6)]
    for _ in range(1000):
        cells = rng.sample(box, rng.randint(0, 12))
        d = Diagram(tuple(cells))
        for i in range(1, 6):
            assert rectify(d, i) == rectify_by_pairing(d, i)


def test_rectification_commutes_with_raising():
    for a in itertools.product(range(3), repeat=3):
        for d in kohnert_closure(key_diagram(a)):
            for c in range(1, d.max_col + 1):
                rect = rectify(d, c)
                if rect is None:
                    continue
                for r in range(1, d.max_row + 1):
                    raised = raise_diagram(d, r)
                    if raised is None:
                        continue
                    assert raise_diagram(rect, r) == rectify(raised, c)


def test_build_schedule_1332():
    assert build_schedule((1, 3, 3, 2)) == (2, 1, 1, 2)


def test_build_schedule_23():
    assert build_schedule((2, 3)) == (1, 2)


def test_build_schedule_maximal_parts_empty():
    assert build_schedule((3, 3)) == ()
    assert build_schedule(()) == ()


@pytest.mark.parametrize("alpha", [(1, 0, 2), (1.5,), (True, 2)])
def test_build_schedule_rejects_zero_parts(alpha):
    # a float would fail inside range(), and True would schedule as the part 1
    with pytest.raises(ValueError, match="must have positive parts"):
        build_schedule(alpha)


def test_schedule_groups_1332():
    assert schedule_groups((1, 3, 3, 2)) == ((2, 1), (), (), (1, 2))


def test_left_justified_and_strings():
    t = UNLOCK_103032_CHAIN[0]
    label_at = dict(t.entries)
    strings = reference._strings(t.entries)
    columns = {label: {c for _, c in cells} for label, cells in strings.items()}
    # the 3 in column 3 has 3s in columns 1 and 2; the lone 1 sits in column 3
    assert label_at[(2, 3)] == 3 and {1, 2} <= columns[3]
    assert label_at[(1, 3)] == 1 and columns[1] == {3}
    assert sorted(strings) == [1, 3, 5, 6]


def test_unlock_op_none_when_all_left_justified():
    t = lock_source_tableau((1, 1, 1))  # single column, nothing to justify
    assert unlock_op(t, 1) is None
    assert unlock_op(t, 2) is None
    done = UNLOCK_103032_CHAIN[-1]  # a finished run leaves nothing movable
    for i in range(1, 4):
        assert unlock_op(done, i) is None


def test_unlock_op_simple_push():
    t0 = UNLOCK_103032_CHAIN[0]
    result = unlock_op(t0, 2)
    assert result is not None
    t1, step = result
    assert t1 == UNLOCK_103032_CHAIN[1]
    assert step.swaps == ()
    assert step.push == ((1, 3), (1, 2))


def test_unlock_walk_with_swaps():
    cur = UNLOCK_103032_CHAIN[0]
    for (idx, chosen, swaps, push), expected in zip(
        UNLOCK_103032_STEPS, UNLOCK_103032_CHAIN[1:]
    ):
        cur, step = unlock_op(cur, idx)
        assert cur == expected
        assert step.op == idx
        assert step.chosen == chosen
        assert step.swaps == swaps
        assert step.push == push


def test_apply_unlock_matches_walk_and_traces():
    a = (1, 0, 3, 0, 3, 2)
    out, trace = apply_unlock(UNLOCK_103032_CHAIN[0], a)
    assert out == UNLOCK_103032_CHAIN[-1]
    assert trace.schedule == (2, 1, 1, 2)
    data = trace.to_json()
    assert data["schedule"] == [2, 1, 1, 2]
    assert data["steps"][3]["swaps"] == [[[5, 3], [3, 3], 6, 5], [[3, 3], [2, 3], 6, 3]]
    assert data["output"] == UNLOCK_103032_CHAIN[-1].to_json()


def test_apply_unlock_fault_shadow_disagrees(monkeypatch):
    real = unlock_module.rectify_move

    def move_one_row_up(rows, i):  # the shadow pushes from the wrong row
        move = real(rows, i)
        if move is None:
            return None
        r = move[0][0] % len(rows) + 1
        return (r, i + 1), (r, i)

    # the first step (index 2) pushes (1, 3) to (1, 2); the witness names
    # the unlocked cells after it
    monkeypatch.setattr(unlock_module, "rectify_move", move_one_row_up)
    _unlock_map_fault(monkeypatch, re.escape("disagree after step 0 (index 2)"),
                      UNLOCK_103032_CHAIN[1].diagram.cells)


def test_apply_unlock_fault_rectification_vanishes(monkeypatch):
    monkeypatch.setattr(unlock_module, "rectify_move", lambda rows, i: None)
    _unlock_map_fault(monkeypatch, re.escape("rectification step 0 (index 2) vanished"),
                      UNLOCK_103032_CHAIN[0].diagram.cells)


def test_apply_unlock_runs_no_rectification(monkeypatch):
    # the agreement with rectification is unlock_map's check, not a step of
    # every unlock run: apply_unlock gives the same image and trace without it
    a = (1, 0, 3, 0, 3, 2)
    expected = apply_unlock(UNLOCK_103032_CHAIN[0], a)[1].to_json()

    def refuse(rows, i):
        raise AssertionError("apply_unlock called rectify_move")

    monkeypatch.setattr(unlock_module, "rectify_move", refuse)
    out, trace = apply_unlock(UNLOCK_103032_CHAIN[0], a)
    assert out == UNLOCK_103032_CHAIN[-1]
    assert trace.to_json() == expected


def _unlock_map_fault(monkeypatch, pattern, witness, keys=lambda ts: ts):
    """Run ``unlock_map`` from a cold cache on (1,0,3,0,3,2), with the first
    chain tableau as its one lock tableau and ``keys`` applied to its key
    tableaux: it must raise a TheoremViolation matching ``pattern`` whose
    message holds ``witness``."""
    enumerate_tableaux = unlock_module.enumerate_tableaux
    monkeypatch.setattr(
        unlock_module,
        "enumerate_tableaux",
        lambda b, kind: (UNLOCK_103032_CHAIN[0],) if kind == "lock"
        else keys(enumerate_tableaux(b, kind)),
    )
    unlock_module.unlock_map.cache_clear()  # a cached map would skip the fault
    with pytest.raises(TheoremViolation, match=pattern) as info:
        unlock_module.unlock_map((1, 0, 3, 0, 3, 2))
    assert str(witness) in str(info.value)


def test_unlock_map_fault_output_not_a_key_tableau(monkeypatch):
    # the chain's last tableau, its true image, dropped from the key tableaux
    image = UNLOCK_103032_CHAIN[-1]
    _unlock_map_fault(monkeypatch, "is not a key tableau", image.entries,
                      keys=lambda ts: tuple(k for k in ts if k != image))


def test_unlock_map_fault_weight_changed(monkeypatch):
    weights = iter([(2, 1), (1, 2)])  # input first, then output
    monkeypatch.setattr(unlock_module, "weight", lambda d: next(weights))
    _unlock_map_fault(monkeypatch, re.escape("from (2, 1) to (1, 2)"),
                      UNLOCK_103032_CHAIN[0].diagram.cells)


@pytest.mark.parametrize("d", [Diagram(), RECT_103032_CHAIN[0]], ids=["empty", "rect_103032"])
@pytest.mark.parametrize("call", [
    lambda d: rectify_move(d.rows, 0),
    lambda d: rectify(d, 0),
    lambda d: rectify_by_pairing(d, 0),
    lambda d: raise_diagram(d, 0),
    lambda d: lower_diagram(d, 0),
    lambda d: unlock_op(UNLOCK_103032_CHAIN[0], 0),
], ids=["rectify_move", "rectify", "rectify_by_pairing", "raise_diagram", "lower_diagram",
        "unlock_op"])
def test_index_zero_is_a_value_error(call, d):
    # "positive" names the guard: a bare index 0 would otherwise fail, if at
    # all, with a negative shift count
    with pytest.raises(ValueError, match="positive"):
        call(d)


def _rectify_along_schedule(d, alpha):
    """Fold ``rectify`` over the schedule of ``alpha``, None-propagating."""
    for idx in build_schedule(alpha):
        if d is None:
            return None
        d = rectify(d, idx)
    return d


def test_apply_rectification_chain_and_identity():
    assert _rectify_along_schedule(RECT_103032_CHAIN[0], (1, 3, 3, 2)) == RECT_103032_CHAIN[-1]
    d = diagram((1, 1), (2, 2))
    assert _rectify_along_schedule(d, (2, 2)) == d  # empty schedule


def test_apply_rectification_lock_source_023():
    got = _rectify_along_schedule(lock_source_tableau((0, 2, 3)).diagram, (2, 3))
    assert got == diagram((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))


def test_rectification_on_lock_diagram_gives_key_diagram():
    for a in [(1, 0, 3, 0, 3, 2), (0, 2, 3), (1, 0, 2, 1), (0, 3, 4)]:
        assert _rectify_along_schedule(lock_diagram(a), flatten(a)) == key_diagram(a)


def test_apply_unlock_lock_source_023():
    a = (0, 2, 3)
    out, _ = apply_unlock(lock_source_tableau(a), a)
    assert out == tableau((1, 1, 2), (1, 2, 2), (2, 1, 3), (2, 2, 3), (2, 3, 3))
    assert weight(out.diagram) == flatten(a)


def test_unlock_image_1021():
    image = set(unlock_image((1, 0, 2, 1)))
    expected = {KEY_1021[name] for name in ("B", "D", "E", "G", "H")}
    assert image == expected
    missed = set(enumerate_kkt((1, 0, 2, 1))) - image
    assert missed == {KEY_1021[name] for name in ("A", "C", "F")}


def test_unlock_image_biject_when_lock_equals_key():
    assert set(unlock_image((3, 1))) == set(enumerate_kkt((3, 1)))


def test_unlock_image_trivial():
    assert unlock_image((0, 0)) == (LabeledDiagram(),)


@pytest.fixture
def plant_images(monkeypatch):
    """Make ``unlock_map`` see ``planted[t]`` as the unlock image of each
    lock tableau t in ``planted``, with t's own trace, so that its shadow
    walk still agrees, from a cold cache that is cleared again at the end:
    a planted map that raised is not cached, but one that passed would be."""
    apply = unlock_module.apply_unlock

    def plant(planted):
        monkeypatch.setattr(
            unlock_module,
            "apply_unlock",
            lambda t, b: (planted[t], apply(t, b)[1]) if t in planted else apply(t, b),
        )
        unlock_module.unlock_map.cache_clear()

    yield plant
    unlock_module.unlock_map.cache_clear()


def test_unlock_map_refuses_a_repeated_image(plant_images):
    # two lock tableaux of one weight, so that s0's image keeps s1's weight
    # and only the repeat is at fault
    a = (0, 0, 2, 1)
    s0, s1 = [t for t in enumerate_lkt(a) if weight(t.diagram) == (1, 1, 1)][:2]
    plant_images({s1: apply_unlock(s0, a)[0]})
    message = f"unlock map is not injective on content {a}"
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        unlock_module.unlock_map(a)


def test_unlock_images_are_the_enumerated_key_tableaux():
    # from cold caches: another test may have cleared one of the two
    unlock_module.enumerate_tableaux.cache_clear()
    unlock_module.unlock_map.cache_clear()
    comps = [a for n in range(1, 5) for a in itertools.product(range(4), repeat=n) if any(a)]
    for a in comps + list(SPOT_COMPOSITIONS):
        keys, locks = enumerate_kkt(a), enumerate_lkt(a)
        image = unlock_module.unlock_map(a)
        assert len(image) == len(locks) and all(type(k) is int for k in image), a
        for t, k in zip(locks, image):
            assert keys[k] == apply_unlock(t, a)[0], (a, t.entries)
        assert unlock_image(a) == tuple(sorted(keys[k] for k in image))


@pytest.mark.parametrize("plant", ["lock tableau", "relabeled image"])
def test_unlock_map_refuses_an_image_outside_the_key_tableaux(plant_images, plant):
    a = (1, 0, 2, 1)
    keys = set(enumerate_kkt(a))
    if plant == "lock tableau":  # a lock tableau that is not a key tableau
        source = image = next(t for t in enumerate_lkt(a) if t not in keys)
    else:  # a key tableau's cells under other labels: same row masks, other entries
        source = enumerate_lkt(a)[0]
        true_image = apply_unlock(source, a)[0]
        image = LabeledDiagram(tuple((cell, l + 1) for cell, l in true_image.entries))
    plant_images({source: image})
    message = f"unlock image {image.entries} of {source.entries} is not a key tableau of {a}"
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        unlock_module.unlock_map(a)
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        unlock_image(a)


def test_unlock_map_checks_agreement_on_the_query_shapes(monkeypatch):
    # map --all runs no shadow, so unlock_map's walk is what checks the
    # agreement with rectification on the length 6-7 shapes it is asked
    # about: every step of every lock tableau, from cold caches
    unlock_module.enumerate_tableaux.cache_clear()
    unlock_module.unlock_map.cache_clear()
    rectify = unlock_module.rectify_move
    calls = []

    def counted(rows, i):
        calls.append(i)
        return rectify(rows, i)

    monkeypatch.setattr(unlock_module, "rectify_move", counted)
    runs, steps = 0, {}
    for a in LONG_INTERLEAVED:
        image = unlock_module.unlock_map(a)
        runs += len(image)
        # one walk per content with its trailing zeros stripped: the cache key
        end = max(i for i, p in enumerate(a) if p) + 1
        steps[a[:end]] = len(image) * len(build_schedule(flatten(a)))
    assert (len(LONG_INTERLEAVED), runs) == (316, 10876)
    assert len(calls) == sum(steps.values())


def test_unlock_weight_preserving_and_injective_sweep():
    for a in itertools.product(range(3), repeat=3):
        images = unlock_image(a)  # raises on any collision or non-membership
        assert len(images) == len(enumerate_lkt(a))
        for t in enumerate_lkt(a):
            out, _ = apply_unlock(t, a)
            assert weight(out.diagram) == weight(t.diagram)
            d = Diagram(tuple(cell for cell, _ in out.entries))
            assert (out.diagram, out.diagram.rows) == (d, d.rows)


def test_swaps_only_cross_smaller_labels():
    for a in [(1, 0, 2, 1), (0, 2, 3), (1, 0, 3, 0, 3, 2)]:
        for t in enumerate_lkt(a):
            _, trace = apply_unlock(t, a)
            for step in trace.steps:
                for _, _, moving, crossed in step.swaps:
                    assert crossed < moving


def test_strings_processed_in_increasing_label_left_to_right():
    for a in [(1, 0, 2, 1), (0, 2, 3), (1, 0, 3, 0, 3, 2)]:
        m = max(a)
        for t in enumerate_lkt(a):
            _, trace = apply_unlock(t, a)
            moved = [step.chosen[2] for step in trace.steps]
            # the label being left-justified never decreases along the run
            assert moved == sorted(moved)
            # per label, push targets follow the schedule plan: box k walks
            # from column m-s+k down to column k, boxes left to right
            by_label: dict[int, list[int]] = {}
            for step in trace.steps:
                by_label.setdefault(step.chosen[2], []).append(step.push[1][1])
            for label, targets in by_label.items():
                s = a[label - 1]
                plan = [
                    c for k in range(1, s + 1) for c in range(m - s + k - 1, k - 1, -1)
                ]
                assert targets == plan


def test_unlock_stuck_fault_is_loud():
    # off-schedule input: pushing the 2 at (1,2) left collides with the 1,
    # and no string crosses, so the operator must abort rather than stall
    t = tableau((1, 1, 1), (1, 2, 2), (2, 2, 3))
    with pytest.raises(TheoremViolation, match="unlock stuck"):
        unlock_op(t, 1)


def test_unlock_step_with_nothing_to_move_is_a_theorem_violation(monkeypatch):
    # one index past the real schedule: every box is left justified by then
    real = unlock_module.build_schedule
    monkeypatch.setattr(unlock_module, "build_schedule", lambda alpha: real(alpha) + (1,))
    # an empty schedule cache, so the lookup reaches the patched build_schedule
    monkeypatch.setattr(unlock_module, "_schedule",
                        functools.lru_cache(unlock_module._schedule.__wrapped__))
    message = (f"unlock step 4 (index 1) found nothing to move on "
               f"{UNLOCK_103032_CHAIN[-1].entries}")
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        apply_unlock(UNLOCK_103032_CHAIN[0], (1, 0, 3, 0, 3, 2))


def test_apply_unlock_flattens_a_content_once_for_all_its_tableaux(monkeypatch):
    flattened = []
    real = unlock_module.flatten
    monkeypatch.setattr(unlock_module, "flatten", lambda a: flattened.append(a) or real(a))
    monkeypatch.setattr(unlock_module, "_schedule",
                        functools.lru_cache(unlock_module._schedule.__wrapped__))
    a = (1, 0, 3, 0, 3, 2)
    for t in enumerate_lkt(a):
        apply_unlock(t, a)
    assert flattened == [a]


def test_unlock_op_keeps_one_box_per_label_and_column():
    # a label with two boxes in one column is not input the operator accepts
    with pytest.raises(ValueError, match="two boxes in column 2"):
        unlock_op(tableau((1, 2, 2), (2, 2, 2)), 1)
    # the 2 at (1,3) is not left justified, but column 2 already holds a 2
    with pytest.raises(TheoremViolation, match="two boxes in column 2"):
        unlock_op(tableau((2, 2, 2), (1, 3, 2)), 2)


def test_schedule_type_is_plain_data():
    s = build_schedule((1, 3, 3, 2))
    assert type(s) is tuple
    assert s == (2, 1, 1, 2)


def test_unlock_records_are_plain_tuples():
    a = (1, 0, 3, 0, 3, 2)
    swaps = 0
    for t in enumerate_lkt(a):
        out, trace = apply_unlock(t, a)
        assert isinstance(trace, tuple)
        assert tuple(trace) == (build_schedule(flatten(a)), trace.steps, t, out)
        for step in trace.steps:
            assert isinstance(step, tuple)
            assert tuple(step) == (step.op, step.chosen, step.swaps, step.push)
            swaps += len(step.swaps)
        for record, field in [(trace, "final"), *((step, "push") for step in trace.steps)]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            hash(record)
        assert list(trace.to_json()) == ["schedule", "steps", "input", "output"]
        for step in trace.steps:
            assert list(step.to_json()) == ["op", "chosen", "swaps", "push"]
    assert swaps > 0


@pytest.mark.parametrize("module", [kohnert.crystal, unlock_module], ids=["crystal", "unlock"])
def test_crystal_and_unlock_are_siblings_over_core_and_tableaux(module):
    """The pairing kernel both use lives in ``core``, so neither ``crystal``
    nor ``unlock`` imports the other."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.module is None:  # from . import name
                imported.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    ours = {name for name in imported if name.startswith(".") or name.startswith("kohnert")}
    assert ours == {".core", ".tableaux"}
    assert module._push_unpaired is kohnert.core._push_unpaired
