"""One workload in one fresh interpreter: set up, run timed passes, gate.

Started by ``run.py`` as a child process.  It prints ``ready`` once the
package is imported and the inputs are built (the end of set-up), then runs
passes over the workload until ``--seconds`` would be exceeded, gating the
outputs as it goes, and prints one JSON line with its raw results.

A pass is the whole workload once.  For ``sweep`` that is one
``run_checks`` call with every cache cleared first, as in a fresh
``kohnert verify``.  For the query workloads it is every item in turn, each a
``kohnert.cli.main`` call with stdout captured and every cache cleared
first, as in a fresh ``kohnert`` process per command: one closed-loop client
with no think time.  With ``--trace 1`` untraced and traced passes alternate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

OUT_DIR = HERE / "out"
DIGEST_FILE = HERE / "digests.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    wall_s: float  # sum of latencies
    cpu_s: float
    latencies: list[float]  # per timed segment (query item or sweep check), seconds at nominal speed
    raw_latencies: list[float]  # the same, as timed
    digests: list[str]  # per item, SHA-256 of its stdout
    problems: list[str | None]  # per item: raised or exited nonzero
    stdout_bytes: int = 0
    cache_stats: dict[str, list[int]] = field(default_factory=dict)  # name -> [hits, misses, currsize]
    cache_entries: int = 0
    layers: dict[str, float] | None = None
    compositions: int = 0  # sweep: compositions tested, summed over the checks


def _cache_snapshot(caches, stats: dict, entries: int) -> int:
    """Add each cache's hits and misses, keep its largest size; return total size."""
    total = 0
    for name, fn in caches.items():
        info = fn.cache_info()
        row = stats.setdefault(name, [0, 0, 0])
        row[0] += info.hits
        row[1] += info.misses
        row[2] = max(row[2], info.currsize)
        total += info.currsize
    return max(entries, total)


class QueryRunner:
    def __init__(self, items) -> None:
        import kohnert.cli

        self.items = items
        self.cli = kohnert.cli
        self.caches = tracing.discover_caches()
        self.verdicts: list[str | None] | None = None  # gate verdict per item, from the first pass
        self.speedo = speed.Speedometer()

    def run_item(self, item) -> tuple[float, float, str, str | None]:
        """Run one item cold; return (start, end, stdout, problem)."""
        tracing.clear_caches(self.caches)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(item.argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception as exc:  # a raising item is a failed item, not a failed run
            code = f"raised {exc!r}"
        end = time.perf_counter()
        problem = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
        return start, end, out.getvalue(), problem

    def run_pass(self, tracer: tracing.Tracer | None = None) -> PassResult:
        """Run every item; the first pass also gates each output.

        The gate runs between items, outside their timing and CPU time, and
        before the next item clears the caches, so its library calls on the
        same composition reuse what the item computed.
        """
        gating = self.verdicts is None and tracer is None
        if gating:
            self.verdicts = []
            kohnert = sys.modules["kohnert"]
        res = PassResult(0.0, 0.0, [], [], [], [])
        spans = []
        cpu, probe_cpu = time.process_time(), self.speedo.cpu_s
        for item in self.items:
            self.speedo.maybe_probe()
            if tracer is not None:
                tracer.item = item.index
            start, end, stdout, problem = self.run_item(item)
            spans.append((start, end))
            res.digests.append(digest(stdout))
            res.problems.append(problem)
            res.stdout_bytes += len(stdout.encode())
            res.cache_entries = _cache_snapshot(self.caches, res.cache_stats, res.cache_entries)
            if gating:
                gate_cpu = time.process_time()
                self.verdicts.append(gate.check_item(kohnert, item, stdout))
                cpu += time.process_time() - gate_cpu
        self.speedo.maybe_probe()
        res.cpu_s = time.process_time() - cpu - (self.speedo.cpu_s - probe_cpu)
        res.raw_latencies, res.latencies = _timings(self.speedo, spans)
        res.wall_s = sum(res.latencies)
        return res


class SweepRunner:
    def __init__(self, size: str) -> None:
        import kohnert.verify

        self.verify = kohnert.verify
        self.caches = tracing.discover_caches()
        length, part, cap = inputs.SWEEP_RANGES[size]
        self.range = kohnert.verify.SweepRange(length, part, cap)
        self.expected = inputs.sweep_count(length, part, cap, kohnert.verify.SPOT_COMPOSITIONS)
        self.passes = 0
        self.verdicts: list[str | None] = [None]  # first gate failure over all passes
        self.speedo = speed.Speedometer()

    def run_pass(self, tracer: tracing.Tracer | None = None) -> PassResult:
        tracing.clear_caches(self.caches)
        if tracer is not None:
            tracer.item = self.passes
        self.passes += 1
        reports, spans, problem = [], [], None
        cpu, probe_cpu = time.process_time(), self.speedo.cpu_s
        for name in inputs.SWEEP_CHECKS:  # one check at a time, the same calls as one run_checks
            self.speedo.maybe_probe()
            start = time.perf_counter()
            try:
                reports += self.verify.run_checks((name,), self.range, self.verify.SPOT_COMPOSITIONS)
            except Exception as exc:  # reported as a failed pass
                problem = problem or f"raised {exc!r}"
            spans.append((start, time.perf_counter()))
        self.speedo.maybe_probe()
        cpu = time.process_time() - cpu - (self.speedo.cpu_s - probe_cpu)
        raw, latencies = _timings(self.speedo, spans)
        res = PassResult(sum(latencies), cpu, latencies, raw, [sweep_digest(reports)], [problem])
        res.cache_entries = _cache_snapshot(self.caches, res.cache_stats, 0)
        res.compositions = sum(r.compositions_tested for r in reports)
        self.verdicts[0] = self.verdicts[0] or gate.check_sweep(reports, self.expected)
        return res


def _timings(speedo: speed.Speedometer, spans) -> tuple[list[float], list[float]]:
    """Each segment's time less the probes in it, raw and at the nominal speed."""
    raw = [speedo.measured(start, end) for start, end in spans]
    return raw, [speedo.scaled(start, end) for start, end in spans]


def sweep_digest(reports) -> str:
    """Digest of the sweep's ``kohnert verify``-style summary lines."""
    lines = [
        f"{r.check} compositions={r.compositions_tested} failures={len(r.failures)} "
        f"{'pass' if r.passed else 'FAIL'}\n"
        for r in reports
    ]
    return digest("".join(lines))


def timed_passes(runner, seconds: float, trace: bool) -> tuple[list[PassResult], list[PassResult], tracing.Tracer | None]:
    """Run passes until the next one would end after ``seconds``.

    Untraced runs make at least one pass; traced runs alternate untraced and
    traced passes and make at least one of each.
    """
    tracer = tracing.Tracer() if trace else None
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    took = {False: 0.0, True: 0.0}  # the latest untraced and traced pass, seconds from start to end
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        began = time.perf_counter()
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                res = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            res.layers = tracing.layer_metrics(tracer)
            traced.append(res)
        else:
            with runner.speedo.ticking():
                plain.append(runner.run_pass())
        took[use_trace] = time.perf_counter() - began
        elapsed = time.perf_counter() - start
        if trace and not traced:
            continue
        if elapsed + took[trace and len(traced) < len(plain)] > seconds:
            return plain, traced, tracer


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p50_p90(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[4], deciles[8]


def recorded_digests(workload: str, seed: int, size: str):
    if size != "full" or not DIGEST_FILE.exists():
        return None
    entry = json.loads(DIGEST_FILE.read_text()).get(workload)
    if workload == "sweep":
        return [entry] if entry else None
    return (entry or {}).get(str(seed))


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, announce=None) -> dict:
    """Set up, measure and gate one workload; return the raw result."""
    if workload == "sweep":
        runner = SweepRunner(size)
        items = None
    else:
        items = inputs.query_items(workload, seed, size)
        runner = QueryRunner(items)
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the program's collections
    if announce:
        announce()

    plain, traced, tracer = timed_passes(runner, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Per item: the gate's verdict on the first pass, whose digests every
    # other pass must repeat, and the recorded digests where there are some.
    reference, verdicts = plain[0].digests, runner.verdicts
    recorded = recorded_digests(workload, seed, size)
    if recorded is not None:
        if len(recorded) != len(reference):
            verdicts = [v or "item count differs from the recorded digests" for v in verdicts]
        else:
            verdicts = [v or (None if ref.startswith(want) else "stdout differs from the recorded digest")
                        for v, ref, want in zip(verdicts, reference, recorded)]

    attempted = failed = 0
    failures: dict[str, int] = {}
    for res in plain + traced:
        for k, (d, problem) in enumerate(zip(res.digests, res.problems)):
            attempted += 1
            reason = problem or verdicts[k] or (None if d == reference[k] else "stdout changed between runs")
            if reason:
                failed += 1
                failures[reason] = failures.get(reason, 0) + 1

    # Times at the nominal speed (see speed.py): a pass is the sum of its
    # segments; a query item is its median over the passes.
    if workload == "sweep":
        latencies = [res.wall_s for res in plain]
    else:
        latencies = [_median(res.latencies[k] for res in plain) for k in range(len(items))]
    p50, p90 = _p50_p90(latencies)
    end_to_end = {
        "wall_s": _median(res.wall_s for res in plain),
        "item_p50_ms": p50 * 1000,
        "item_p90_ms": p90 * 1000,
        "peak_rss_mb": peak_rss_mb,
    }

    per_layer = {}
    if trace:
        for name in traced[0].layers:
            per_layer[name] = _median(res.layers[name] for res in traced)
        per_layer["verify.compositions"] = _median(res.compositions for res in plain)
        per_layer["cli.stdout_bytes"] = _median(res.stdout_bytes for res in plain)
        per_layer["process.cpu_s"] = _median(res.cpu_s for res in plain)
        per_layer["process.cache_entries"] = _median(res.cache_entries for res in plain)
        per_layer["process.trace_overhead_s"] = _median(r.wall_s for r in traced) - end_to_end["wall_s"]
        for name in tracing.REPORTED_CACHES:
            for k, stat in enumerate(("hits", "misses", "currsize")):
                per_layer[f"cache.{name}.{stat}"] = _median(res.cache_stats.get(name, (0, 0, 0))[k] for res in plain)
        tracer.write_spans(OUT_DIR / f"spans-{workload}.csv.gz")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": {
            "passes": len(plain),
            "pass_wall_s": [res.wall_s for res in plain],
            "raw_pass_wall_s": [sum(res.raw_latencies) for res in plain],
            "nominal_probe_s": speed.NOMINAL_PROBE_S,
            "probe_s": [end - start for start, end in runner.speedo.marks],
            "traced_passes": len(traced),
            "items_per_pass": len(plain[0].digests),
            "compositions": (runner.expected if workload == "sweep" else len({i.entry.comp for i in items})),
            "digests_recorded": recorded is not None,
            "spans_kept": len(tracer.spans) if tracer else 0,
            "spans_dropped": tracer.dropped if tracer else 0,
            "untraced_targets": tracer.missing if tracer else [],
            "caches": plain[0].cache_stats,  # every cache found: [hits, misses, currsize]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=inputs.SIZES, default="full")
    parser.add_argument("--setup-only", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)

    def announce():
        print("ready", flush=True)
        if args.setup_only:
            sys.exit(0)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, announce)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
