"""Regenerate the benchmark's recorded data from the current source tree.

    python3 bench/record.py pool      # bench/pool.txt: tableau counts per composition
    python3 bench/record.py digests   # bench/digests.json: stdout digests per item

The pool counts are invariants of the mathematics; the digests pin the
program's stdout.  Both are recorded once and then only compared against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402

RECORDED_SEEDS = (1, 2, 3)
DIGEST_CHARS = 16  # recorded prefix of each item's SHA-256


def record_pool() -> None:
    import kohnert
    import tracing

    caches = tracing.discover_caches()
    lines = []
    for a in inputs.pool_compositions():
        lines.append(f"{','.join(map(str, a))} {len(kohnert.enumerate_kkt(a))} {len(kohnert.enumerate_lkt(a))}")
        tracing.clear_caches(caches)
    inputs.POOL_FILE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} compositions to {inputs.POOL_FILE}")


def record_digests() -> None:
    import measure

    sweep = measure.SweepRunner("full")
    data: dict = {"sweep": sweep.run_pass().digests[0]}
    for workload in ("key_query", "lock_query"):
        data[workload] = {}
        for seed in RECORDED_SEEDS:
            runner = measure.QueryRunner(inputs.query_items(workload, seed))
            data[workload][str(seed)] = [measure.digest(runner.run_item(item)[2])[:DIGEST_CHARS] for item in runner.items]
    measure.DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote digests for seeds {RECORDED_SEEDS} to {measure.DIGEST_FILE}")


if __name__ == "__main__":
    what = sys.argv[1:] or ["pool", "digests"]
    if "pool" in what:
        record_pool()
    if "digests" in what:
        record_digests()
