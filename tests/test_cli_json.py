"""The JSON that ``map`` and ``enum`` write from their text tables equals
``json.dumps`` of the records' ``to_json()`` lists, byte for byte."""

import io
import json
from contextlib import redirect_stdout

import pytest

from kohnert.cli import main
from kohnert.core import family_closure
from kohnert.tableaux import enumerate_tableaux, lock_source_tableau
from kohnert.unlock import apply_unlock
from kohnert.verify import SPOT_COMPOSITIONS, SweepRange, _sweep

COMPOSITIONS = _sweep(SweepRange(4, 3), SPOT_COMPOSITIONS)


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
}


@pytest.mark.parametrize("name", COMMANDS)
def test_json_stdout_is_json_dumps_of_the_payload(name):
    flags, payload = COMMANDS[name]
    argv = [name.split()[0], *flags, "--format", "json"]
    for a in COMPOSITIONS:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv + ["--comp", ",".join(map(str, a))]) == 0
        assert out.getvalue() == json.dumps(payload(a)) + "\n", a
