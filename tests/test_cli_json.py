"""The JSON that ``map`` and ``enum`` write from their text tables, and that
``poly`` writes as text, equals ``json.dumps`` of the records' ``to_json()``,
byte for byte."""

import io
import json
from contextlib import redirect_stdout

import pytest

import kohnert.cli as cli
from kohnert.cli import main
from kohnert.core import family_closure
from kohnert.poly import polynomial
from kohnert.tableaux import enumerate_tableaux, lock_source_tableau
from kohnert.unlock import apply_unlock
from kohnert.verify import SPOT_COMPOSITIONS, SweepRange, _sweep

#: The sweep holds () and padded contents such as (0, 2, 0); one more is padded
#: past a spot shape.
COMPOSITIONS = [*_sweep(SweepRange(4, 3), SPOT_COMPOSITIONS), (1, 0, 3, 0, 3, 2, 0, 0)]


def _map_payload(a, every, trace):
    sources = enumerate_tableaux(a, "lock") if every else (lock_source_tableau(a),)
    payload = []
    for t in sources:
        image, run = apply_unlock(t, a)
        item = {"input": t.to_json(), "output": image.to_json()}
        if trace:
            item["trace"] = run.to_json()
        payload.append(item)
    return payload


def _enum_payload(a, kind):
    if kind == "kd":
        return [d.to_json() for d in family_closure(a, "key")]
    return [t.to_json() for t in enumerate_tableaux(a, {"kkt": "key", "lkt": "lock"}[kind])]


#: (command-line flags, the payload of composition a) per JSON command.
COMMANDS = {
    "map": ((), lambda a: _map_payload(a, False, False)),
    "map --all": (("--all",), lambda a: _map_payload(a, True, False)),
    "map --all --trace": (("--all", "--trace"), lambda a: _map_payload(a, True, True)),
    **{
        f"enum --kind {kind}": (("--kind", kind), lambda a, kind=kind: _enum_payload(a, kind))
        for kind in ("kkt", "lkt", "kd")
    },
    **{
        f"poly --kind {kind}": (
            ("--kind", kind), lambda a, kind=kind: polynomial(a, kind).to_json()
        )
        for kind in ("key", "lock")
    },
}


def _mismatches(name):
    """The compositions whose JSON stdout under command ``name`` is not
    ``json.dumps`` of the payload."""
    flags, payload = COMMANDS[name]
    argv = [name.split()[0], *flags, "--format", "json"]
    found = []
    for a in COMPOSITIONS:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv + ["--comp", ",".join(map(str, a))]) == 0
        if out.getvalue() != json.dumps(payload(a)) + "\n":
            found.append(a)
    return found


@pytest.mark.parametrize("name", COMMANDS)
def test_json_stdout_is_json_dumps_of_the_payload(name):
    assert _mismatches(name) == []


@pytest.mark.parametrize("kind", ["key", "lock"])
def test_a_changed_separator_fails_the_poly_comparison(monkeypatch, kind):
    # joined with "," instead of ", ", every polynomial of two or more terms differs
    monkeypatch.setattr(cli, "_json_list", lambda texts: "[" + ",".join(texts) + "]")
    found = _mismatches(f"poly --kind {kind}")
    assert found and set(found) == {
        a for a in COMPOSITIONS if len(polynomial(a, kind).terms) > 1
    }
