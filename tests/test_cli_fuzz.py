"""Fuzzing the command line: whatever the arguments and ``--input`` JSON, every
subcommand exits 0 or 2 (or 1 for ``verify``), never with a traceback and
never with exit 3, which is reserved for real theorem violations.

Valid compositions stay at length <= 4 and parts <= 2, and every other
``--comp`` string either has no ASCII digits or has a negative part, so no
example can start a large enumeration.  Junk strings hold underscores and
fullwidth 3s, which ``int`` reads but ``parse_composition`` refuses.  JSON
integers are small or +-10**12, which an unchecked diagram would try to
allocate at once.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from kohnert.cli import main

valid_comps = st.lists(st.integers(0, 2), max_size=4).map(
    lambda parts: ",".join(map(str, parts))
)
junk_comps = st.one_of(
    st.text(alphabet=" ,-x._\uff13", max_size=6),
    st.tuples(st.lists(st.integers(0, 2), max_size=3), st.integers(-3, -1)).map(
        lambda pair: ",".join(map(str, pair[0] + [pair[1]]))
    ),
)
comps = st.one_of(valid_comps, junk_comps).map(lambda text: f"--comp={text}")

json_ints = st.one_of(st.integers(-2, 5), st.sampled_from([10**12, -(10**12)]))
json_values = st.one_of(
    st.recursive(
        st.one_of(json_ints, st.booleans()), lambda inner: st.lists(inner, max_size=4),
        max_leaves=12,
    ),
    # shaped like a tableau, [[row, col, label], ...], to get past the shape check
    st.lists(st.lists(json_ints, min_size=3, max_size=3), max_size=3),
)


def choice(flag, *values):
    return st.sampled_from([f"{flag}={v}" for v in values])


def command(*parts):
    return st.tuples(*parts).map(list)


commands = st.one_of(
    command(st.just("enum"), choice("--kind", "kkt", "lkt", "kd", "x"), comps,
            choice("--format", "ascii", "json")),
    command(st.just("poly"), choice("--kind", "key", "lock", "x"), comps,
            choice("--format", "text", "json", "x")),
    command(st.just("crystal"), choice("--kind", "key", "lock", "x"), comps),
    command(st.just("map"), comps, st.sampled_from([[], ["--all"], ["--input"]]),
            st.sampled_from([[], ["--trace"]]), choice("--format", "ascii", "json")),
    command(st.just("verify"), choice("--check", "all", "positivity", "intertwine",
                                      "connected", "characterize", "agreement", "x"),
            choice("--max-len", -2, -1, 0, 1, 2, 3, "x"), choice("--max-part", -1, 0, 1, 2)),
)


def flatten_argv(parts):
    argv = []
    for part in parts:
        argv.extend(part if isinstance(part, list) else [part])
    return argv


def exit_status(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse reports usage errors by exiting 2
            return exc.code


@settings(max_examples=300, deadline=None)
@given(parts=commands)
def test_cli_exits_cleanly_on_any_arguments(tmp_path_factory, parts):
    argv = flatten_argv(parts)
    if "--input" in argv:
        path = tmp_path_factory.getbasetemp() / "fuzz-args.json"
        path.write_text("[]")
        argv.insert(argv.index("--input") + 1, str(path))
    allowed = {0, 1, 2} if argv[0] == "verify" else {0, 2}
    assert exit_status(argv) in allowed, argv


@settings(max_examples=300, deadline=None)
@given(comp=comps, data=json_values, extra=st.sampled_from([[], ["--trace"], ["--all"]]))
def test_map_exits_cleanly_on_any_input_json(tmp_path_factory, comp, data, extra):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(data))
    argv = ["map", comp, "--input", str(path), *extra]
    assert exit_status(argv) in {0, 2}, (argv, data)
