"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

import kohnert  # noqa: E402
from kohnert.verify import SPOT_COMPOSITIONS, SweepRange, VerificationReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_emits_every_named_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for line in ("python=", "nproc=", "seed=7", "commit="):
        assert line in out.stdout
    assert "fail_frac 0 " in out.stdout


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "sweep", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def test_draw_is_seeded_and_stratified():
    a = inputs.query_items("key_query", 3)
    assert a == inputs.query_items("key_query", 3)
    assert a != inputs.query_items("key_query", 4)
    comps = [item.entry.comp for item in inputs.query_items("lock_query", 3)]
    assert len(comps) == 3 * inputs.QUERY_COMPOSITIONS["full"]
    assert all(4 <= len(c) <= 7 and max(c) <= 4 and sum(c) <= 5 and inputs.interleaved(c) for c in comps)


@pytest.mark.parametrize("rng", [(0, 3, 3), (3, 2, 3), (5, 3, 5), (4, 3, 12)])
def test_sweep_count_matches_the_enumeration(rng):
    expected = len(kohnert.verify._sweep(SweepRange(*rng), SPOT_COMPOSITIONS))
    assert inputs.sweep_count(*rng, SPOT_COMPOSITIONS) == expected > 0


def test_cache_discovery_finds_caches_added_later():
    @functools.lru_cache(maxsize=None)
    def added_later(x):
        return x

    kohnert.core.added_later = added_later
    try:
        assert "added_later" in tracing.discover_caches()
    finally:
        del kohnert.core.added_later
    assert "label_key" in tracing.discover_caches()


def _tiny_outputs(workload):
    runner = measure.QueryRunner(inputs.query_items(workload, 5, "tiny"))
    return runner.items, [runner.run_item(item)[2] for item in runner.items]


def test_gate_accepts_real_outputs_and_rejects_corrupted_ones():
    for workload in ("key_query", "lock_query"):
        items, outs = _tiny_outputs(workload)
        for item, out in zip(items, outs):
            assert gate.check_item(kohnert, item, out) is None, (item.argv, out)
            for bad in _corruptions(item.argv[0], out):
                assert gate.check_item(kohnert, item, bad) is not None, (item.argv, bad)


def _corruptions(command, out):
    if command == "poly":
        data = json.loads(out)
        data["terms"][0]["coef"] += 1
        yield json.dumps(data) + "\n"
        data["terms"][0]["coef"] -= 1
        data["terms"][-1]["exp"][0] += 1
        yield json.dumps(data) + "\n"
    elif command == "crystal":
        yield out.replace("vertices: ", "vertices: 1")
        yield out.replace("edges: ", "edges: 9")
    else:
        pairs = json.loads(out)
        first = pairs[0]["output"]
        first[0][2] += 1  # relabel one cell
        yield json.dumps(pairs) + "\n"
        first[0][2] -= 1
        first[0][0] += 1  # move one cell up a row
        yield json.dumps(pairs) + "\n"
        yield json.dumps(pairs[1:]) + "\n"
        yield "not json\n"


def test_gate_rejects_failed_or_short_sweeps():
    good = [VerificationReport(name, 29, (), 0.0) for name in inputs.SWEEP_CHECKS]
    assert gate.check_sweep(good, 29) is None
    assert gate.check_sweep(good, 0) is not None
    assert gate.check_sweep(good, 30) is not None
    assert gate.check_sweep(good[:4], 29) is not None
    failed = good[:4] + [VerificationReport("agreement", 29, (((1,), "boom"),), 0.0)]
    assert gate.check_sweep(failed, 29) is not None


def _traced_pass(runner):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    return tracer, res


def test_traced_self_times_sum_to_at_most_the_item_wall_time():
    runner = measure.QueryRunner(inputs.query_items("lock_query", 2, "tiny"))
    tracer, res = _traced_pass(runner)
    assert tracer.spans and not tracer.missing
    for item, latency in zip(runner.items, res.raw_latencies):
        assert 0 < tracer.item_self_s[item.index] <= latency
    sweep = measure.SweepRunner("tiny")
    tracer, res = _traced_pass(sweep)
    assert 0 < sum(tracer.item_self_s.values()) <= sum(res.raw_latencies)
    names = {span[3] for span in tracer.spans}
    assert {"verify.check_positivity", "tableaux.label_key", "unlock.rectify_move"} <= names


def test_spans_nest_under_their_parent():
    runner = measure.QueryRunner(inputs.query_items("key_query", 2, "tiny")[:2])
    tracer, _ = _traced_pass(runner)
    by_id = {span[0]: span for span in tracer.spans}
    roots = [span for span in tracer.spans if span[1] == -1]
    assert [span[3] for span in roots] == ["cli.main", "cli.main"]
    for sid, parent, item, name, start, end in tracer.spans:
        assert start <= end
        if parent != -1:
            p = by_id[parent]
            assert p[4] <= start and end <= p[5] and p[2] == item


def test_bypass_predictions_hold():
    key = measure.run("key_query", 2, 0.0, True, "tiny")["per_layer"]
    lock = measure.run("lock_query", 2, 0.0, True, "tiny")["per_layer"]
    assert key["tableaux.label_key_calls"] > 0 and lock["tableaux.label_key_calls"] == 0
    assert lock["unlock.steps"] > 0
    assert all(v == 0 for k, v in key.items() if k.startswith("unlock."))


def test_tracing_is_removed_after_a_traced_run():
    originals = {name: getattr(sys.modules[f"kohnert.{name.split('.')[0]}"], name.split(".")[1])
                 for name in tracing.TARGETS}
    measure.run("key_query", 2, 0.0, True, "tiny")
    for name, fn in originals.items():
        module, attr = name.split(".")
        assert getattr(sys.modules[f"kohnert.{module}"], attr) is fn
    assert kohnert.verify.ALL_CHECKS["positivity"] is kohnert.verify.check_positivity
    assert kohnert.label_key is kohnert.tableaux.label_key


def test_scaling_leaves_out_probes_and_divides_by_the_nearby_slowdown():
    sp = speed.Speedometer()
    nominal = speed.NOMINAL_PROBE_S
    sp.marks = [(0.0, 2 * nominal), (10.0, 10.0 + 2 * nominal), (10.5, 10.5 + 4 * nominal), (99.0, 99.0 + nominal)]
    assert sp.measured(9.9, 11.0) == pytest.approx(1.1 - 6 * nominal)
    assert sp.slowdown(9.9, 11.0) == pytest.approx(3.0)  # the probes at 10 and 10.5 only
    assert sp.scaled(9.9, 11.0) == pytest.approx((1.1 - 6 * nominal) / 3.0)
    assert sp.slowdown(60.0, 61.0) == pytest.approx(1.0)  # none near: the closest one


def test_ticking_probes_while_busy_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sp = speed.Speedometer()
    with sp.ticking():
        end = time.perf_counter() + 4 * speed.PROBE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sp.marks) >= 4 and speed._routine() == 175
