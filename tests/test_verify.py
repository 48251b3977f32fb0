import dataclasses
import itertools
import json
import re
import subprocess
import sys

import pytest

import kohnert.verify
from kohnert import (
    SPOT_COMPOSITIONS,
    SparsePolynomial,
    SweepRange,
    VerificationReport,
    check_agreement_and_truncation,
    check_characterizations,
    check_connectivity,
    check_intertwining,
    check_positivity,
    run_checks,
)
from kohnert.core import MAX_CELLS, TheoremViolation
from kohnert.verify import ALL_CHECKS, DEFAULT_RANGE, REPORT_NAMES, _sweep

SMALL = SweepRange(max_length=3, max_part=2)


def test_sweep_range_enumeration():
    rng = SweepRange(max_length=2, max_part=1)
    comps = list(rng.compositions())
    assert comps == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_sweep_range_max_size():
    rng = SweepRange(max_length=2, max_part=3, max_size=1)
    assert list(rng.compositions()) == [(), (0,), (1,), (0, 0), (0, 1), (1, 0)]


def test_sweep_range_count_is_the_number_enumerated():
    for length in range(7):
        for part in range(5):
            for size in (None, *range(15)):
                rng = SweepRange(length, part, size)
                listed = list(rng.compositions())
                assert rng.count() == len(listed), rng
                # the definition: every tuple of each length, in product order, cut by size
                assert listed == [
                    parts
                    for l in range(length + 1)
                    for parts in itertools.product(range(part + 1), repeat=l)
                    if size is None or sum(parts) <= size
                ], rng
    assert SweepRange(8, 6).count() == (7**9 - 1) // 6
    assert SweepRange(10**9, 0).count() == 10**9 + 1


@pytest.mark.parametrize(
    "bounds, got",
    [
        ((-1, 2), "max length -1 and max part 2"),
        ((3, -1), "max length 3 and max part -1"),
        ((3, 2, -1), "max length 3, max part 2 and max size -1"),
    ],
)
def test_sweep_range_refuses_negative_bounds(bounds, got):
    message = f"sweep bounds must be nonnegative, got {got}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepRange(*bounds)


@pytest.mark.parametrize(
    "bounds, got",
    [
        ((2.5, 2), "max length 2.5 and max part 2"),
        ((2, 2.0), "max length 2 and max part 2.0"),
        ((3, 2, 2.5), "max length 3, max part 2 and max size 2.5"),
        (("3", 2), "max length '3' and max part 2"),
        ((True, 2), "max length True and max part 2"),
        ((3, -1.0), "max length 3 and max part -1.0"),
    ],
)
def test_sweep_range_refuses_bounds_that_are_not_ints(bounds, got):
    # before the sign test: range() would raise TypeError on a float, "<" on a
    # string, and True would sweep as length 1
    message = f"sweep bounds must be integers, got {got}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepRange(*bounds)


def test_sweep_size_limit(monkeypatch):
    # the default range and the benchmark's are listed; one past the limit is refused first
    assert len(_sweep(DEFAULT_RANGE, SPOT_COMPOSITIONS)) == 343
    assert len(_sweep(SweepRange(5, 3, 5), SPOT_COMPOSITIONS)) == 394
    # no range within the cell limits holds MAX_SWEEP + 1, so the limit is lowered to 6
    monkeypatch.setattr(kohnert.verify, "MAX_SWEEP", 6)
    over = SweepRange(max_length=1, max_part=5)
    assert over.count() == 7
    with pytest.raises(ValueError, match="holds 7 compositions, which exceeds the "
                       "limit of 6 compositions"):
        _sweep(over, ())


def test_sweep_refuses_a_range_past_the_cell_limits():
    # refused before the Schur oracle, which recurses once per cell, sees 1,100 cells
    with pytest.raises(ValueError, match=re.escape(
            "sweep size 1100 (max-len * max-part) exceeds the limit of 512 cells")):
        run_checks(["characterize"], SweepRange(1, 1100), ())
    # at max part 0 every length passes the size test, so the length has its own
    with pytest.raises(ValueError, match=re.escape(
            "sweep length 513 (max-len) exceeds the limit of 512 parts")):
        _sweep(SweepRange(513, 0), ())


def test_a_size_cap_below_the_cell_limit_admits_a_long_range():
    # 60 * 9 cells is past the limit, but no composition of size <= 1 is
    assert len(_sweep(SweepRange(60, 9, 1), ())) == 1891
    # a cap past the limit is refused by its own name
    with pytest.raises(ValueError, match=re.escape(
            "sweep size 600 (max size) exceeds the limit of 512 cells")):
        _sweep(SweepRange(100, 9, 600), ())


#: Extra compositions ``_sweep`` refuses, and the refusal each gets.
REFUSED_EXTRA = [
    ([[1, 2]], "a weak composition is a tuple of nonnegative integer parts"),
    ([(1, -1)], "a weak composition is a tuple of nonnegative integer parts"),
    ([(0, 2), (1, 2.0)], "a weak composition is a tuple of nonnegative integer parts"),
    ([(600,)], f"extra composition size 600 exceeds the limit of {MAX_CELLS} cells"),
    ([(0,) * 600], f"extra composition length 600 exceeds the limit of {MAX_CELLS} parts"),
    (
        [(i, j) for i in range(2, 102) for j in range(50)],
        "the sweep range (length <= 1, parts <= 1) with 5000 extra compositions holds "
        "5003 compositions, which exceeds the limit of 4000 compositions",
    ),
]


@pytest.mark.parametrize("extra, message", REFUSED_EXTRA)
def test_a_refused_extra_composition_runs_no_check(monkeypatch, extra, message):
    import kohnert.verify as verify

    calls = []
    monkeypatch.setitem(verify.ALL_CHECKS, "positivity", calls.append)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_checks(["positivity"], SweepRange(1, 1), extra)
    assert calls == []


def test_extra_compositions_count_toward_the_sweep_limit_once_each(monkeypatch):
    monkeypatch.setattr(kohnert.verify, "MAX_SWEEP", 5)
    # the range holds (), (0,) and (1,); of the extras only (2,) and (3,) are new
    extra = [(0,), (2,), (1,), (3,), (2,)]
    assert _sweep(SweepRange(1, 1), extra) == [(), (0,), (1,), (2,), (3,)]
    # a size cap leaves (1,) out of the range, so it counts as an extra
    assert _sweep(SweepRange(1, 1, 0), [(1,), (1,)]) == [(), (0,), (1,)]
    with pytest.raises(ValueError, match=re.escape(
            "the sweep range (length <= 1, parts <= 1) with 3 extra compositions "
            "holds 6 compositions, which exceeds the limit of 5 compositions")):
        _sweep(SweepRange(1, 1), [*extra, (0, 0)])


def test_a_size_capped_sweep_lists_in_the_time_of_its_size():
    # the range holds 1,771 compositions, but its uncapped product has 4^20 tuples
    proc = subprocess.run(
        [sys.executable, "-c", "from kohnert.verify import SweepRange, _sweep; "
         "print(len(_sweep(SweepRange(20, 3, 2), ())))"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1771\n"


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_an_empty_sweep_is_refused_not_passed(name):
    # a negative max size would list no composition, so the range is refused
    # before any check runs, even with the spot shapes to sweep
    with pytest.raises(ValueError, match="max size -1"):
        run_checks([name], SweepRange(3, 2, max_size=-1), SPOT_COMPOSITIONS)
    # every admitted range holds the empty composition; an extra one adds to it
    [report] = run_checks([name], SweepRange(3, 2, max_size=0), ((0, 1),))
    assert report.passed
    assert report.compositions_tested == 5


def test_positivity_small_range():
    [report] = run_checks(["positivity"], SMALL, ())
    assert report.passed
    assert report.compositions_tested == 40


def test_intertwining_small_range():
    assert run_checks(["intertwine"], SMALL, ())[0].passed


def test_connectivity_small_range():
    assert run_checks(["connected"], SMALL, ())[0].passed


def test_characterizations_small_range():
    assert run_checks(["characterize"], SMALL, ())[0].passed


def test_agreement_and_truncation_small_range():
    assert run_checks(["agreement"], SMALL, ())[0].passed


def test_spot_compositions_included_once():
    rng = SweepRange(max_length=3, max_part=3)
    [report] = run_checks(["positivity"], rng, SPOT_COMPOSITIONS)
    base = sum(1 for _ in rng.compositions())
    in_range = sum(1 for a in SPOT_COMPOSITIONS if len(a) <= 3 and max(a) <= 3)
    assert report.compositions_tested == base + len(SPOT_COMPOSITIONS) - in_range


def test_run_checks_order_and_names():
    reports = run_checks(["positivity", "connected"], SMALL, ())
    assert [r.check for r in reports] == ["positivity", "connectivity"]


def test_report_json_shape():
    [report] = run_checks(["positivity"], SweepRange(1, 1), ())
    data = report.to_json()
    assert data["check"] == "positivity"
    assert data["failures"] == []
    assert data["compositions_tested"] == 3
    assert isinstance(data["elapsed_s"], float)
    json.dumps(data)  # serializable


def test_report_pass_iff_no_failures():
    good = VerificationReport("x", 1, (), 0.0)
    bad = VerificationReport("x", 1, (((1,), "w"),), 0.0)
    assert good.passed and not bad.passed


@pytest.fixture
def cold_polynomials():
    """Clear the polynomial cache around a test whose faults change it."""
    import kohnert.poly

    kohnert.poly.polynomial.cache_clear()
    yield kohnert.poly
    kohnert.poly.polynomial.cache_clear()


def test_positivity_catches_the_word_applied_first_recorded_first(monkeypatch, cold_polynomials):
    poly = cold_polynomials
    sorting_word = poly._sorting_word
    # the operators run last recorded first, so a reversed word runs them first recorded first
    monkeypatch.setattr(poly, "_sorting_word", lambda a: sorting_word(a)[::-1])
    assert check_positivity((1, 0, 2, 1)) == (
        "key polynomial is not the weight count of the key tableaux"
    )


def test_positivity_catches_a_dropped_lock_closure_diagram(monkeypatch, cold_polynomials):
    poly = cold_polynomials
    family_closure = poly.family_closure
    monkeypatch.setattr(poly, "family_closure", lambda a, kind: family_closure(a, kind)[1:])
    assert check_positivity((1, 0, 2, 1)) == (
        "lock polynomial is not the weight count of the lock tableaux"
    )


@pytest.fixture
def cold_tableaux():
    """Clear the tableau enumeration cache around a test whose faults change it."""
    import kohnert.tableaux

    kohnert.tableaux.enumerate_tableaux.cache_clear()
    yield kohnert.tableaux
    kohnert.tableaux.enumerate_tableaux.cache_clear()


@pytest.mark.parametrize("position", [0, -1])
@pytest.mark.parametrize("kind", ["key", "lock"])
def test_positivity_catches_a_labeling_that_is_not_a_tableau_of_its_family(
    monkeypatch, cold_tableaux, kind, position
):
    # neither labeling validates its result and apply_unlock validates
    # neither its input nor its output, so positivity is where both fire
    tableaux = cold_tableaux
    a = (1, 0, 2, 1)
    target = tableaux.enumerate_tableaux(a, kind)[position]
    tableaux.enumerate_tableaux.cache_clear()
    name = f"label_{kind}"
    label = getattr(tableaux, name)
    full = 1 if kind == "key" else max(a)  # the column every nonzero part's label fills

    def swapped(d, b):
        # on the target's diagram only, swap the labels of that column's two lowest cells
        t = label(d, b)
        if d != target.diagram:
            return t
        entries = list(t.entries)
        i, j = [k for k, ((_, c), _) in enumerate(entries) if c == full][:2]
        entries[i], entries[j] = (entries[i][0], entries[j][1]), (entries[j][0], entries[i][1])
        return tableaux.LabeledDiagram(tuple(entries))

    monkeypatch.setattr(tableaux, name, swapped)
    [bad] = [t for t in tableaux.enumerate_tableaux(a, kind) if t.diagram == target.diagram]
    validate = tableaux.validate_kkt if kind == "key" else tableaux.validate_lkt
    assert bad != target and not validate(bad, a)
    witness = f"{kind} labeling {bad.entries} is not a {kind} tableau"
    assert check_positivity(a) == witness
    [report] = run_checks(["positivity"], SweepRange(0, 0), [a])
    assert report.failures == ((a, witness),)


def test_positivity_catches_a_lock_source_that_is_not_the_one_of_its_weight(monkeypatch):
    import kohnert.verify as verify

    a = (1, 0, 2, 1)
    lock_source_tableau = verify.lock_source_tableau
    source = lock_source_tableau(a)
    other = next(t for t in verify.enumerate_tableaux(a, "lock") if t != source)
    monkeypatch.setattr(
        verify, "lock_source_tableau", lambda b: other if b == a else lock_source_tableau(b)
    )
    witness = (f"lock source {other.entries} is not the lock tableau {source.entries} "
               f"of weight (1, 2, 1)")
    assert check_positivity(a) == witness
    [report] = run_checks(["positivity"], SweepRange(0, 0), [a])
    assert report.failures == ((a, witness),)


def test_positivity_catches_two_lock_tableaux_of_the_source_weight(
    monkeypatch, cold_polynomials, cold_tableaux
):
    poly, tableaux = cold_polynomials, cold_tableaux
    a = (1, 0, 2, 1)
    source = tableaux.lock_source_tableau(a)
    family_closure = tableaux.family_closure

    def doubled(b, kind):
        # a closure search that finds the source diagram twice, for the
        # lock polynomial and the lock enumeration alike
        found = family_closure(b, kind)
        return found + (source.diagram,) if (b, kind) == (a, "lock") else found

    monkeypatch.setattr(poly, "family_closure", doubled)
    monkeypatch.setattr(tableaux, "family_closure", doubled)
    witness = "2 lock tableaux have weight (1, 2, 1), not exactly one"
    assert check_positivity(a) == witness
    [report] = run_checks(["positivity"], SweepRange(0, 0), [a])
    assert report.failures == ((a, witness),)


def test_intertwining_catches_swapped_images(monkeypatch):
    import kohnert.verify as verify

    original = verify.unlock_map

    def swapped(a):
        image = list(original(a))
        if a == (1, 0, 2, 1):
            image[0], image[1] = image[1], image[0]
        return tuple(image)

    monkeypatch.setattr(verify, "unlock_map", swapped)
    assert check_intertwining((1, 0, 2, 1)).startswith("raising color ")


def test_intertwining_catches_a_missing_key_edge(monkeypatch):
    import kohnert.verify as verify

    a = (1, 0, 2, 1)
    lock, key = verify.crystal_graph(a, "lock"), verify.crystal_graph(a, "key")
    image = verify.unlock_map(a)
    u, v, color = lock.edges[-1]
    needed = (image[u], image[v], color)
    assert needed in key.edges
    thinned = dataclasses.replace(key, edges=tuple(e for e in key.edges if e != needed))
    original = verify.crystal_graph
    monkeypatch.setattr(
        verify,
        "crystal_graph",
        lambda b, kind: thinned if (b, kind) == (a, "key") else original(b, kind),
    )
    assert check_intertwining(a) == f"raising color {color} fails on {lock.vertices[v].entries}"


def test_intertwining_catches_an_image_outside_the_key_crystal(monkeypatch):
    import kohnert.unlock as unlock

    a = (1, 0, 2, 1)
    lock, key = unlock.enumerate_tableaux(a, "lock"), unlock.enumerate_tableaux(a, "key")
    stray = next(t for t in lock if t not in key)  # a lock tableau that is not a key tableau
    apply = unlock.apply_unlock
    monkeypatch.setattr(
        unlock, "apply_unlock",
        lambda t, b: (stray, apply(t, b)[1]) if t == stray else apply(t, b),
    )
    unlock.unlock_map.cache_clear()
    try:
        [report] = run_checks(["intertwine"], SweepRange(0, 0), [a])
    finally:
        unlock.unlock_map.cache_clear()
    witness = f"unlock image {stray.entries} of {stray.entries} is not a key tableau of {a}"
    assert report.failures == ((a, witness),)


@pytest.mark.parametrize("check", ["intertwine", "agreement"])
def test_unlock_checks_catch_an_image_of_another_weight(monkeypatch, check):
    import kohnert.unlock as unlock

    # a key tableau of another weight planted as the first lock tableau's image
    a = (1, 0, 2, 1)
    source = unlock.enumerate_tableaux(a, "lock")[0]
    before = unlock.weight(source.diagram)
    image = next(k for k in unlock.enumerate_tableaux(a, "key")
                 if unlock.weight(k.diagram) != before)
    apply = unlock.apply_unlock
    monkeypatch.setattr(
        unlock, "apply_unlock",
        lambda t, b: (image, apply(t, b)[1]) if t == source else apply(t, b),
    )
    unlock.unlock_map.cache_clear()
    try:
        [report] = run_checks([check], SweepRange(0, 0), [a])
    finally:
        unlock.unlock_map.cache_clear()
    witness = (f"unlock changed the weight of {source.diagram.cells} "
               f"from {before} to {unlock.weight(image.diagram)}")
    assert report.failures == ((a, witness),)


def test_agreement_catches_wrong_truncation(monkeypatch):
    import kohnert.verify as verify

    truncate_below = verify.truncate_below
    monkeypatch.setattr(verify, "truncate_below", lambda t, bound: truncate_below(t, bound - 1))
    assert check_agreement_and_truncation((0, 2, 3)).startswith("truncation below 3 changes step 0 ")


def test_agreement_walks_past_the_first_block(monkeypatch):
    import kohnert.verify as verify

    # a wrong cut below 3 alone shows first at step 2, past the first block of
    # (1, 2, 3), which ends after step 1: a walk cut short there misses it
    truncate_below = verify.truncate_below
    monkeypatch.setattr(
        verify,
        "truncate_below",
        lambda t, bound: truncate_below(t, bound - 1 if bound == 3 else bound),
    )
    witness = check_agreement_and_truncation((1, 2, 3))
    assert witness.startswith("truncation below 3 changes step 2 (index 1) on ")


def test_agreement_reports_a_vanished_prefix_step(monkeypatch):
    import kohnert.verify as verify

    # both walks read verify's own rectify_walk, so neither finds a push
    monkeypatch.setattr(verify, "rectify_walk", lambda rows, indices: ([None], list(rows)))
    witness = check_agreement_and_truncation((0, 2, 3))
    assert witness.startswith("rectification vanished at prefix step 0 (index 1) on ")


def test_positivity_catches_a_negative_term(monkeypatch):
    import kohnert.verify as verify

    a = (1, 0, 2, 1)
    key, lock = verify.key_polynomial(a), verify.lock_polynomial(a)
    reversed_diff = verify.subtract(lock, key)
    assert not verify.is_monomial_positive(reversed_diff)
    # the weight counts still agree, so the difference is the first thing to fail
    subtract = verify.subtract
    monkeypatch.setattr(verify, "subtract", lambda p, q: subtract(q, p))
    assert check_positivity(a) == f"key - lock has a negative term: {reversed_diff}"


@pytest.mark.parametrize("kind", ["lock", "key"])
def test_connectivity_catches_a_disconnected_crystal(monkeypatch, kind):
    import kohnert.verify as verify

    monkeypatch.setattr(verify, "is_connected", lambda g: g.kind != kind)
    assert check_connectivity((1, 0, 2, 1)) == f"{kind} crystal is disconnected"


@pytest.mark.parametrize(
    "name", ["key symmetric", "key quasisymmetric", "lock symmetric", "lock quasisymmetric"]
)
def test_characterizations_catch_a_wrong_shape_predicate(monkeypatch, name):
    import kohnert.verify as verify

    a = (1, 0, 2)  # every predicate is False here
    facts = verify.classify_symmetry(a)
    assert facts[name] is False
    monkeypatch.setattr(verify, "classify_symmetry", lambda b: {**facts, name: True})
    assert check_characterizations(a) == f"{name}: polynomial says False, shape says True"


def _wrong_schur_for(monkeypatch, wrong_shape):
    """Make ``verify.schur_polynomial`` return the zero polynomial for
    ``wrong_shape`` alone."""
    import kohnert.verify as verify

    schur = verify.schur_polynomial
    monkeypatch.setattr(
        verify,
        "schur_polynomial",
        lambda shape, n: SparsePolynomial.zero(n) if shape == wrong_shape else schur(shape, n),
    )


def test_characterizations_catch_a_key_polynomial_that_is_not_the_schur(monkeypatch):
    _wrong_schur_for(monkeypatch, (2, 1))  # the reverse of the increasing (1, 2)
    assert check_characterizations((1, 2)) == (
        "key polynomial of increasing content is not the reversed-shape Schur"
    )


def test_characterizations_catch_a_lock_polynomial_that_is_not_the_schur(monkeypatch):
    # (0, 2, 2) is lock symmetric, so weakly increasing: its key polynomial is
    # checked against the Schur of (2, 2, 0) first, which stays right
    _wrong_schur_for(monkeypatch, (2, 2))
    assert check_characterizations((0, 2, 2)) == (
        "symmetric lock polynomial is not the rectangular Schur"
    )


def test_characterizations_catch_lock_and_key_apart_on_decreasing_parts(monkeypatch):
    import kohnert.verify as verify

    # doubling every coefficient keeps the lock polynomial's symmetry facts
    lock_polynomial = verify.lock_polynomial

    def doubled(a):
        p = lock_polynomial(a)
        return SparsePolynomial(p.n, tuple((exp, 2 * coef) for exp, coef in p.terms))

    monkeypatch.setattr(verify, "lock_polynomial", doubled)
    assert check_characterizations((2, 0, 1)) == "decreasing nonzero parts but lock != key"


def test_every_check_has_a_report_name():
    assert REPORT_NAMES.keys() == ALL_CHECKS.keys()


@pytest.mark.parametrize(
    "names, unknown", [(["positivity", "nosuch"], "'nosuch'"), ("positivity", "'p'")]
)
def test_unknown_check_names_are_refused_before_any_composition_runs(monkeypatch, names, unknown):
    import kohnert.verify as verify

    ran = []
    monkeypatch.setitem(verify.ALL_CHECKS, "positivity", ran.append)
    with pytest.raises(ValueError) as info:
        run_checks(names, SMALL, ())
    message = str(info.value)
    assert unknown in message
    assert all(repr(name) in message for name in ALL_CHECKS)
    assert ran == []


def _planted(monkeypatch):
    """Wrap every check to log its calls; "connected" fails on (1, 0) and
    (0, 1), and "characterize" raises a TheoremViolation on (1, 1)."""
    import kohnert.verify as verify

    calls = []

    def wrap(name, check):
        def planted(a):
            calls.append((name, a))
            if name == "connected" and a in {(1, 0), (0, 1)}:
                return f"planted on {a}"
            if name == "characterize" and a == (1, 1):
                raise TheoremViolation("planted violation")
            return check(a)
        return planted

    for name, check in list(verify.ALL_CHECKS.items()):
        monkeypatch.setitem(verify.ALL_CHECKS, name, wrap(name, check))
    return calls


def test_one_sweep_over_all_checks_equals_one_sweep_per_check(monkeypatch):
    _planted(monkeypatch)
    rng = SweepRange(2, 1)
    together = run_checks(ALL_CHECKS, rng, ((0, 3, 2),))
    alone = [report for name in ALL_CHECKS for report in run_checks([name], rng, ((0, 3, 2),))]
    assert [(r.check, r.compositions_tested, r.failures) for r in together] == [
        (r.check, r.compositions_tested, r.failures) for r in alone
    ]
    assert [r.passed for r in together] == [True, True, False, False, True]


def test_reports_follow_the_names_and_witnesses_the_compositions(monkeypatch):
    calls = _planted(monkeypatch)
    names = ["agreement", "characterize", "connected", "positivity"]
    reports = run_checks(names, SweepRange(2, 1), ())
    assert [r.check for r in reports] == [REPORT_NAMES[name] for name in names]
    assert [r.check for r in reports] == [
        "agreement+truncation", "characterizations", "connectivity", "positivity"
    ]
    assert reports[2].failures == (((0, 1), "planted on (0, 1)"), ((1, 0), "planted on (1, 0)"))
    # the violation is the witness, and the checks after it still ran there
    assert reports[1].failures == (((1, 1), "planted violation"),)
    assert [name for name, a in calls if a == (1, 1)] == names
    assert reports[0].passed and reports[3].passed
    assert all(r.compositions_tested == 7 and r.elapsed_s >= 0 for r in reports)
