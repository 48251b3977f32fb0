"""Output correctness gate, run on the first pass, between items and outside
their timing.

Each check returns None when the output is right and a one-line reason when
it is not.  The checks test invariants rather than replaying the program's
own code paths where they can: coefficient sums against the recorded tableau
counts, key minus lock by a plain dictionary difference, connectivity by a
union-find of its own, weights by counting rows of the printed cells.
"""

from __future__ import annotations

import json
import re
from collections import Counter


def check_item(kohnert, item, stdout: str) -> str | None:
    """Check one query item's stdout; ``kohnert`` is the imported package."""
    command = item.argv[0]
    try:
        if command == "poly":
            return _check_poly(kohnert, item, stdout)
        if command == "crystal":
            return _check_crystal(kohnert, item, stdout)
        if command == "map":
            return _check_map(kohnert, item, stdout)
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        return f"unreadable output: {exc!r}"
    return f"no check for command {command!r}"


def _kind(item) -> str:
    return item.argv[item.argv.index("--kind") + 1]


def _check_poly(kohnert, item, stdout: str) -> str | None:
    a, kind = item.entry.comp, _kind(item)
    data = json.loads(stdout)
    if data["n"] != len(a):
        return f"polynomial has {data['n']} variables, expected {len(a)}"
    poly = {tuple(t["exp"]): t["coef"] for t in data["terms"]}
    if len(poly) != len(data["terms"]):
        return "repeated exponent"
    if any(len(e) != len(a) or sum(e) != sum(a) or min(e) < 0 for e in poly):
        return "exponent of the wrong length or degree"
    if any(not isinstance(c, int) or c <= 0 for c in poly.values()):
        return "non-positive coefficient"
    count = item.entry.kkt if kind == "key" else item.entry.lkt
    if sum(poly.values()) != count:
        return f"coefficients sum to {sum(poly.values())}, expected {count} tableaux"
    if kind == "key":
        key, lock = poly, dict(kohnert.lock_polynomial(a).terms)
    else:
        key, lock = dict(kohnert.key_polynomial(a).terms), poly
    for exp in key.keys() | lock.keys():
        if key.get(exp, 0) < lock.get(exp, 0):
            return f"key - lock is negative at exponent {exp}"
    return None


def _check_crystal(kohnert, item, stdout: str) -> str | None:
    a, kind = item.entry.comp, _kind(item)
    match = re.fullmatch(r"vertices: (\d+)\nedges: (\d+)\n", stdout)
    if match is None:
        return "crystal summary is not two count lines"
    vertices, edges = int(match[1]), int(match[2])
    count = item.entry.kkt if kind == "key" else item.entry.lkt
    if vertices != count:
        return f"{vertices} vertices, expected {count} tableaux"
    graph = kohnert.crystal_graph(a, kind)
    if (len(graph.vertices), len(graph.edges)) != (vertices, edges):
        return "printed counts differ from the graph"
    if not connected(vertices, graph.edges):
        return f"{kind} crystal is disconnected"
    return None


def connected(count: int, edges) -> bool:
    parent = list(range(count))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst, _ in edges:
        parent[root(src)] = root(dst)
    return len({root(x) for x in range(count)}) <= 1


def _check_map(kohnert, item, stdout: str) -> str | None:
    a = item.entry.comp
    pairs = json.loads(stdout)
    if len(pairs) != item.entry.lkt:
        return f"{len(pairs)} lock tableaux mapped, expected {item.entry.lkt}"
    sources = [kohnert.LabeledDiagram.from_json(p["input"]) for p in pairs]
    images = [kohnert.LabeledDiagram.from_json(p["output"]) for p in pairs]
    if len(set(sources)) != len(sources) or not all(kohnert.validate_lkt(t, a) for t in sources):
        return "inputs are not the distinct lock tableaux"
    if len(set(images)) != len(images):
        return "unlock images are not distinct"
    for pair, image in zip(pairs, images):
        if not kohnert.validate_kkt(image, a):
            return f"unlock image {pair['output']} is not a key tableau"
        if _row_counts(pair["input"]) != _row_counts(pair["output"]):
            return f"unlock changed the weight of {pair['input']}"
    return None


def _row_counts(cells) -> Counter:
    return Counter(row for row, _, _ in cells)


def check_sweep(reports, expected: int) -> str | None:
    """Every report passes and tested exactly the expected, nonzero count."""
    if expected <= 0:
        return "the sweep range is empty"
    if len(reports) != 5:
        return f"{len(reports)} reports, expected 5"
    for report in reports:
        if not report.passed:
            a, witness = report.failures[0]
            return f"{report.check} failed on {a}: {witness}"
        if report.compositions_tested != expected:
            return f"{report.check} tested {report.compositions_tested}, expected {expected}"
    return None
