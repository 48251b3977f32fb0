import dataclasses
import json

import pytest

from kohnert import (
    SPOT_COMPOSITIONS,
    SweepRange,
    VerificationReport,
    check_agreement_and_truncation,
    check_characterizations,
    check_connectivity,
    check_intertwining,
    check_positivity,
    run_checks,
)
from kohnert.verify import ALL_CHECKS, DEFAULT_RANGE, MAX_SWEEP, _sweep

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
            for size in (None, -1, *range(15)):
                rng = SweepRange(length, part, size)
                assert rng.count() == sum(1 for _ in rng.compositions()), rng
    assert SweepRange(8, 6).count() == (7**9 - 1) // 6
    assert SweepRange(10**9, 0).count() == 10**9 + 1


def test_sweep_size_limit():
    # the default range and the benchmark's are listed; one past the limit is refused first
    assert len(_sweep(DEFAULT_RANGE, SPOT_COMPOSITIONS)) == 343
    assert len(_sweep(SweepRange(5, 3, 5), SPOT_COMPOSITIONS)) == 394
    over = SweepRange(max_length=1, max_part=MAX_SWEEP - 1)
    assert over.count() == MAX_SWEEP + 1
    with pytest.raises(ValueError, match=f"holds {MAX_SWEEP + 1} compositions, which exceeds the "
                       f"limit of {MAX_SWEEP} compositions"):
        _sweep(over, ())


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_an_empty_sweep_is_refused_not_passed(name):
    empty = SweepRange(3, 2, max_size=-1)
    assert empty.count() == 0
    with pytest.raises(ValueError, match=r"\(length <= 3, parts <= 2, size <= -1\) holds no "
                       "composition, and no extra one was given"):
        ALL_CHECKS[name](empty, ())
    # an extra composition alone is a sweep of one
    assert ALL_CHECKS[name](empty, ((0, 1),)).compositions_tested == 1


def test_positivity_small_range():
    report = check_positivity(SMALL, ())
    assert report.passed
    assert report.compositions_tested == 40


def test_intertwining_small_range():
    assert check_intertwining(SMALL, ()).passed


def test_connectivity_small_range():
    assert check_connectivity(SMALL, ()).passed


def test_characterizations_small_range():
    assert check_characterizations(SMALL, ()).passed


def test_agreement_and_truncation_small_range():
    assert check_agreement_and_truncation(SMALL, ()).passed


def test_spot_compositions_included_once():
    rng = SweepRange(max_length=3, max_part=3)
    report = check_positivity(rng, SPOT_COMPOSITIONS)
    base = sum(1 for _ in rng.compositions())
    in_range = sum(1 for a in SPOT_COMPOSITIONS if len(a) <= 3 and max(a) <= 3)
    assert report.compositions_tested == base + len(SPOT_COMPOSITIONS) - in_range


def test_run_checks_order_and_names():
    reports = run_checks(["positivity", "connected"], SMALL, ())
    assert [r.check for r in reports] == ["positivity", "connectivity"]


def test_report_json_shape():
    report = check_positivity(SweepRange(1, 1), ())
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


def test_intertwining_catches_swapped_images(monkeypatch):
    import kohnert.verify as verify

    original = verify.unlock_map

    def swapped(a):
        pairs = list(original(a))
        if a == (1, 0, 2, 1):
            (s0, i0), (s1, i1) = pairs[:2]
            pairs[:2] = [(s0, i1), (s1, i0)]
        return tuple(pairs)

    monkeypatch.setattr(verify, "unlock_map", swapped)
    report = check_intertwining(SweepRange(0, 0), ((1, 0, 2, 1),))
    assert [a for a, _ in report.failures] == [(1, 0, 2, 1)]
    assert report.failures[0][1].startswith("raising color ")


def test_intertwining_catches_a_missing_key_edge(monkeypatch):
    import kohnert.verify as verify

    a = (1, 0, 2, 1)
    lock, key = verify.crystal_graph(a, "lock"), verify.crystal_graph(a, "key")
    images = dict(verify.unlock_map(a))
    u, v, color = lock.edges[-1]
    needed = (
        key.vertices.index(images[lock.vertices[u]]),
        key.vertices.index(images[lock.vertices[v]]),
        color,
    )
    assert needed in key.edges
    thinned = dataclasses.replace(key, edges=tuple(e for e in key.edges if e != needed))
    original = verify.crystal_graph
    monkeypatch.setattr(
        verify,
        "crystal_graph",
        lambda b, kind: thinned if (b, kind) == (a, "key") else original(b, kind),
    )
    report = check_intertwining(SweepRange(0, 0), (a,))
    assert report.failures == ((a, f"raising color {color} fails on {lock.vertices[v].entries}"),)


def test_intertwining_catches_an_image_outside_the_key_crystal(monkeypatch):
    import kohnert.verify as verify

    a = (1, 0, 2, 1)
    lock, key = verify.crystal_graph(a, "lock"), verify.crystal_graph(a, "key")
    u, v, color = lock.edges[0]
    stray = lock.vertices[v]  # a lock tableau that is not a key tableau
    assert stray not in key.vertices
    original = verify.unlock_map
    monkeypatch.setattr(
        verify,
        "unlock_map",
        lambda b: tuple((t, stray if t == stray else img) for t, img in original(b)),
    )
    report = check_intertwining(SweepRange(0, 0), (a,))
    assert report.failures == ((a, f"raising color {color} fails on {stray.entries}"),)


def test_agreement_catches_wrong_truncation(monkeypatch):
    import kohnert.verify as verify

    truncate_below = verify.truncate_below
    monkeypatch.setattr(verify, "truncate_below", lambda t, bound: truncate_below(t, bound - 1))
    report = check_agreement_and_truncation(SweepRange(0, 0), ((0, 2, 3),))
    assert [a for a, _ in report.failures] == [(0, 2, 3)]
    assert report.failures[0][1].startswith("truncation below 3 changes step 0 ")


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
    report = check_agreement_and_truncation(SweepRange(0, 0), ((1, 2, 3),))
    assert [a for a, _ in report.failures] == [(1, 2, 3)]
    assert report.failures[0][1].startswith("truncation below 3 changes step 2 (index 1) on ")
