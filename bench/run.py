"""The kohnert benchmark: one command, three workloads, every metric by name.

    python3 bench/run.py --workload sweep|key_query|lock_query|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Each workload runs in a fresh interpreter (``measure.py``), so set-up time and
peak RSS belong to that workload.  Set-up is also timed in a few more fresh
interpreters that stop once set up, and ``setup_s`` is the median of all of
them.  Every time is scaled to a fixed machine speed by the probe in
``speed.py``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with
traced passes and prints the per-layer metrics.  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit, the fail
fraction, and the Python version, CPU count, seed and commit.  The full
result is also written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "kohnert"
OUT_DIR = HERE / "out"
WORKLOADS = ("sweep", "key_query", "lock_query")
SETUP_SAMPLES = 9  # extra fresh interpreters timed to set-up only
RUN_LIMIT_S = 170  # a workload's child is killed after this long

UNITS = {
    "setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed item)."""


def spawn(workload: str, seed: int, seconds: float, trace: int, size: str, setup_only: bool):
    """Start measure.py; return (start, when it was set up, its result or None)."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S} s") from None
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} child exited with code {proc.returncode} before reporting")
    if setup_only:
        return start, ready, None
    return start, ready, json.loads(rest.strip().splitlines()[-1])


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code when there is no commit."""
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(path.relative_to(SOURCE).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(workload: str, args) -> dict:
    spans = []  # (start, set up) per fresh interpreter
    speedo = speed.Speedometer()
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            speedo.probe()
            spans.append(spawn(workload, args.seed, args.seconds, 0, args.size, True)[:2])
            speedo.probe()
    speedo.probe()
    start, ready, raw = spawn(workload, args.seed, args.seconds, args.trace, args.size, False)
    spans.append((start, ready))
    setups = [speedo.scaled(start, ready) for start, ready in spans]
    if args.trace:
        metrics = {k: (v, per_layer_unit(k)) for k, v in raw["per_layer"].items()}
    else:
        values = {"setup_s": statistics.median(setups), **raw["end_to_end"]}
        metrics = {k: (values[k], UNITS[k]) for k in UNITS}
    info = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "source_sha256": source_digest(), "setup_samples_s": setups,
        "raw_setup_samples_s": [ready - start for start, ready in spans],
        **raw["info"],
    }
    result = {
        "correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "failures": raw["failures"]}, indent=1) + "\n"
    )
    print(f"# workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"size={args.size} python={info['python']} nproc={info['nproc']} "
          f"commit={info['commit']} source={info['source_sha256']} passes={info['passes']} "
          f"items_per_pass={info['items_per_pass']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {raw['failed'] / raw['attempted']:.6g} ratio ({raw['failed']}/{raw['attempted']})")
    for reason, count in raw["failures"].items():
        print(f"# failed x{count}: {reason}")
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kohnert benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no kohnert sources at {SOURCE.relative_to(ROOT)}; run from a checkout", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run_workload(workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
