"""Acceptance criteria, one test per criterion, each printing a PASS line.

All checks are exact; the two timed criteria assert their stated budgets.
"""

import itertools
import random
import time

from kohnert import (
    DEFAULT_RANGE,
    Diagram,
    SPOT_COMPOSITIONS,
    build_schedule,
    crystal_graph,
    enumerate_kkt,
    key_diagram,
    kohnert_closure,
    lock_diagram,
    lower_diagram,
    raise_diagram,
    raise_lkt,
    rectify,
    rectify_by_pairing,
    run_checks,
    unlock_op,
)
from kohnert.cli import main

from golden import (
    KEY_1021,
    LKT_034_CHAIN,
    LOCK_1021,
    RECT_103032_CHAIN,
    UNLOCK_103032_CHAIN,
    UNLOCK_103032_STEPS,
)


def report(number, text):
    print(f"ACCEPTANCE {number}: {text} ... PASS")


def test_criterion_1_kkt_032_has_nine_elements():
    start = time.perf_counter()
    count = len(enumerate_kkt((0, 3, 2)))
    elapsed = time.perf_counter() - start
    assert count == 9
    assert elapsed < 1.0
    report(1, f"|KKT(0,3,2)| == 9 in {elapsed:.3f}s")


def _cli_poly_terms(capsys, kind, comp):
    assert main(["poly", "--kind", kind, "--comp", comp]) == 0
    out = capsys.readouterr().out.strip()
    return sorted(out.split(" + "))


def test_criterion_2_key_polynomial_1021_via_cli(capsys):
    got = _cli_poly_terms(capsys, "key", "1,0,2,1")
    expected = sorted(
        [
            "x1^2*x2*x3",
            "x1*x2^2*x3",
            "x1*x2*x3^2",
            "x1^2*x2*x4",
            "x1*x2^2*x4",
            "x1^2*x3*x4",
            "x1*x2*x3*x4",
            "x1*x3^2*x4",
        ]
    )
    assert got == expected
    report(2, "poly --kind key --comp 1,0,2,1 prints the eight expected terms")


def test_criterion_3_lock_polynomial_023_via_cli(capsys):
    got = _cli_poly_terms(capsys, "lock", "0,2,3")
    expected = sorted(
        [
            "x2^2*x3^3",
            "x1*x2*x3^3",
            "x1^2*x3^3",
            "x1*x2^2*x3^2",
            "x1^2*x2*x3^2",
            "x1^2*x2^2*x3",
            "x1^2*x2^3",
        ]
    )
    assert got == expected
    report(3, "poly --kind lock --comp 0,2,3 prints the seven expected terms")


def test_criterion_4_crystals_of_1021():
    start = time.perf_counter()
    key = crystal_graph((1, 0, 2, 1), "key")
    lock = crystal_graph((1, 0, 2, 1), "lock")
    elapsed = time.perf_counter() - start
    assert len(key.vertices) == 8
    assert sorted(c for _, _, c in key.edges) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert set(key.vertices) == set(KEY_1021.values())
    assert len(lock.vertices) == 5
    assert sorted(c for _, _, c in lock.edges) == [2, 2, 2, 3]
    assert set(lock.vertices) == set(LOCK_1021.values())
    assert elapsed < 1.0
    report(4, f"key/lock crystals of (1,0,2,1) match exactly in {elapsed:.3f}s")


def test_criterion_5_schedule_and_both_walks():
    assert build_schedule((1, 3, 3, 2)) == (2, 1, 1, 2)
    d = RECT_103032_CHAIN[0]
    for idx, expected in zip((2, 1, 1, 2), RECT_103032_CHAIN[1:]):
        d = rectify(d, idx)
        assert d == expected
    t = UNLOCK_103032_CHAIN[0]
    for (idx, chosen, swaps, push), expected in zip(
        UNLOCK_103032_STEPS, UNLOCK_103032_CHAIN[1:]
    ):
        t, step = unlock_op(t, idx)
        assert t == expected
        assert (step.chosen, step.swaps, step.push) == (chosen, swaps, push)
    report(5, "schedule (2,1,1,2) and both four-step walks reproduce every state")


def test_criterion_6_lock_raising_034_stops_despite_unpaired_box():
    a = (0, 3, 4)
    t0, t1, t2 = LKT_034_CHAIN
    assert raise_lkt(t0, a, 2) == t1
    assert raise_lkt(t1, a, 2) == t2
    assert raise_lkt(t2, a, 2) is None
    assert raise_diagram(t2.diagram, 2) is not None
    report(6, "raising on content (0,3,4) gives two steps then nothing")


def test_criterion_7_exhaustive_sweep():
    start = time.perf_counter()
    reports = run_checks(
        ["positivity", "intertwine", "connected", "characterize", "agreement"],
        DEFAULT_RANGE,
        SPOT_COMPOSITIONS,
    )
    elapsed = time.perf_counter() - start
    for rep in reports:
        assert rep.passed, f"{rep.check} failed: {rep.failures[:1]}"
        assert rep.compositions_tested >= 341
    assert elapsed < 60.0
    report(7, f"five sweeps x {reports[0].compositions_tested} compositions, "
              f"zero failures, {elapsed:.1f}s")


def test_criterion_8_inverse_contract_and_rectification_equivalence():
    checked = 0
    for a in DEFAULT_RANGE.compositions():
        for seed in (key_diagram(a), lock_diagram(a)):
            for d in kohnert_closure(seed):
                for i in range(1, d.max_row + 2):
                    raised = raise_diagram(d, i)
                    if raised is not None:
                        assert lower_diagram(raised, i) == d
                    lowered = lower_diagram(d, i)
                    if lowered is not None:
                        assert raise_diagram(lowered, i) == d
                for i in range(1, d.max_col + 2):
                    assert rectify(d, i) == rectify_by_pairing(d, i)
                checked += 1
    rng = random.Random(13)
    box = [(r, c) for r in range(1, 6) for c in range(1, 6)]
    for _ in range(1000):
        d = Diagram(tuple(rng.sample(box, rng.randint(0, 15))))
        for i in range(1, 6):
            assert rectify(d, i) == rectify_by_pairing(d, i)
    report(8, f"raise/lower inverse and both rectification rules agree on "
              f"{checked} closure diagrams and 1000 random diagrams")
