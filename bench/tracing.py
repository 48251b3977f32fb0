"""Cache discovery and call tracing, done from the benchmark's side.

Nothing here edits the program.  Caches are found by scanning the ``kohnert``
modules, and tracing replaces the listed public functions, wherever a
``kohnert`` module binds them, with wrappers that record one span per call.
``Tracer.uninstall`` puts every original back, so an untraced pass runs the
program exactly as shipped.
"""

from __future__ import annotations

import gc
import gzip
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Traced functions ("module.function" inside ``kohnert``) and their layer.
#: A layer's ``<layer>_s`` metric is the summed self time of its spans.
TARGETS = {
    "core.kohnert_closure": "core.closure",
    "tableaux.label_key": "tableaux.label_key",
    "tableaux.label_lock": "tableaux.label_lock",
    "tableaux.validate_kkt": "tableaux.validate",
    "tableaux.validate_lkt": "tableaux.validate",
    "tableaux.enumerate_kkt": "tableaux.enumerate",
    "tableaux.enumerate_lkt": "tableaux.enumerate",
    "poly.key_polynomial": "poly.polynomial",
    "poly.lock_polynomial": "poly.polynomial",
    "poly.schur_polynomial": "poly.oracle",
    "poly.is_symmetric": "poly.oracle",
    "poly.is_quasisymmetric": "poly.oracle",
    "poly.classify_symmetry": "poly.oracle",
    "crystal.crystal_graph": "crystal.graph",
    "crystal.is_connected": "crystal.graph",
    "crystal.raise_kkt": "crystal.raise",
    "crystal.raise_lkt": "crystal.raise",
    "crystal.lower_kkt": "crystal.lower",
    "crystal.lower_lkt": "crystal.lower",
    "unlock.unlock_map": "unlock.map",
    "unlock.unlock_image": "unlock.map",
    "unlock.apply_unlock": "unlock.apply",
    "unlock.unlock_op": "unlock.op",
    "unlock.rectify_move": "unlock.rectify",
    "verify.check_positivity": "verify.positivity",
    "verify.check_intertwining": "verify.intertwine",
    "verify.check_connectivity": "verify.connected",
    "verify.check_characterizations": "verify.characterize",
    "verify.check_agreement_and_truncation": "verify.agreement",
    "cli.main": "cli.self",
}

LAYERS = tuple(dict.fromkeys(TARGETS.values()))

#: Caches reported as per-layer metrics.  One that no longer exists reads 0;
#: any other cache found is cleared all the same and listed in the result file.
REPORTED_CACHES = (
    "crystal_graph", "enumerate_kkt", "enumerate_lkt", "key_polynomial", "kohnert_closure",
    "label_key", "label_lock", "lock_polynomial", "unlock_map",
)

#: Spans kept per run for the span file; later spans still count toward
#: every metric but are not written out.
SPAN_LIMIT = 200_000


def kohnert_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "kohnert" or name.startswith("kohnert.")) and m is not None]


def discover_caches() -> dict:
    """Every functools cache bound at module or class level in ``kohnert``.

    Returns {name: cached function}, with one entry per cache however many
    modules re-export it.
    """
    found: dict[int, tuple[str, object]] = {}
    for module in kohnert_modules():
        scopes = [("", vars(module))] + [
            (f"{v.__name__}.", vars(v)) for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module.__name__
        ]
        for prefix, scope in scopes:
            for attr, value in scope.items():
                value = getattr(value, "__func__", value)  # staticmethod / classmethod
                if callable(getattr(value, "cache_clear", None)) and callable(
                    getattr(value, "cache_info", None)
                ):
                    found.setdefault(id(value), (prefix + attr, value))
    return dict(sorted(found.values(), key=lambda kv: kv[0]))


def clear_caches(caches: dict) -> None:
    """Empty every cache and collect the garbage, so the next call starts as
    in a fresh process instead of paying for what earlier calls left."""
    for fn in caches.values():
        fn.cache_clear()
    gc.collect()


def _count_closure(c, result, missed):
    c["core.closure_calls"] += 1
    if missed:
        c["core.closure_misses"] += 1
        c["core.closure_diagrams"] += len(result)


def _count_label_key(c, result, missed):
    c["tableaux.label_key_calls"] += 1
    c["tableaux.label_key_hits"] += not missed


def _count_raise(c, result, missed):
    c["crystal.raise_calls"] += 1
    c["crystal.raise_applied"] += result is not None


def _count_unlock(c, result, missed):
    trace = result[1]
    c["unlock.steps"] += len(trace.steps)
    c["unlock.swaps"] += sum(len(step.swaps) for step in trace.steps)


def _counter(name):
    def count(c, result, missed):
        c[name] += 1
    return count


def _count_len(name, attr=None):
    def count(c, result, missed):
        c[name] += len(getattr(result, attr) if attr else result)
    return count


#: Work counters read at the boundary of each traced call.
COUNTERS = {
    "core.kohnert_closure": _count_closure,
    "tableaux.label_key": _count_label_key,
    "tableaux.label_lock": _counter("tableaux.label_lock_calls"),
    "tableaux.validate_kkt": _counter("tableaux.validate_calls"),
    "tableaux.validate_lkt": _counter("tableaux.validate_calls"),
    "tableaux.enumerate_kkt": _count_len("tableaux.tableaux_out"),
    "tableaux.enumerate_lkt": _count_len("tableaux.tableaux_out"),
    "poly.key_polynomial": _count_len("poly.terms", "terms"),
    "poly.lock_polynomial": _count_len("poly.terms", "terms"),
    "crystal.crystal_graph": _count_len("crystal.edges", "edges"),
    "crystal.raise_kkt": _count_raise,
    "crystal.raise_lkt": _count_raise,
    "crystal.lower_kkt": _counter("crystal.lower_calls"),
    "crystal.lower_lkt": _counter("crystal.lower_calls"),
    "unlock.apply_unlock": _count_unlock,
    "unlock.rectify_move": _counter("unlock.rectify_calls"),
}


class Tracer:
    """Records a span per traced call and folds self times per layer.

    A span is (id, parent id, item id, name, start, end).  Its self time is
    its duration minus the time covered by its direct children, computed as
    it closes; ``self_s`` sums those per layer and ``item_self_s`` per item.
    """

    def __init__(self) -> None:
        self.item = -1
        self.spans: list[tuple] = []
        self.dropped = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero the per-layer, per-item and work counters."""
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.item_self_s: dict[int, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, layer: str, fn):
        stack = self._stack
        info = getattr(fn, "cache_info", None)
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            misses = info().misses if info else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                self.self_s[layer] += own
                self.item_self_s[self.item] += own
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((sid, parent, self.item, name, start, end))
                else:
                    self.dropped += 1
            if count is not None:
                count(self.counts, result, info is not None and info().misses > misses)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every binding of each target, in modules and module-level dicts."""
        modules = kohnert_modules()
        self.missing = []
        for name, layer in TARGETS.items():
            module_name, attr = name.split(".")
            module = sys.modules.get(f"kohnert.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, layer, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((setattr, m, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((dict.__setitem__, value, k, original))

    def uninstall(self) -> None:
        while self._undo:
            put, target, key, original = self._undo.pop()
            put(target, key, original)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,item,name,start,end\n")
            for sid, parent, item, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{item},{name},{start:.9f},{end:.9f}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    c = tracer.counts
    out = {f"{layer}_s": tracer.self_s[layer] for layer in LAYERS}
    for name in (
        "core.closure_calls", "core.closure_misses", "core.closure_diagrams",
        "tableaux.label_key_calls", "tableaux.label_lock_calls", "tableaux.validate_calls",
        "tableaux.tableaux_out", "poly.terms", "crystal.raise_calls", "crystal.lower_calls",
        "crystal.edges", "unlock.steps", "unlock.swaps", "unlock.rectify_calls",
    ):
        out[name] = c[name]
    out["tableaux.label_key_hit_ratio"] = _ratio(c["tableaux.label_key_hits"], c["tableaux.label_key_calls"])
    out["crystal.raise_applied_ratio"] = _ratio(c["crystal.raise_applied"], c["crystal.raise_calls"])
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
