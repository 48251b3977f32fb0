import argparse
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import kohnert.cli as cli
import kohnert.core
from kohnert.cli import MAX_CELLS, MAX_INPUT_CHARS, main, parse_composition
from kohnert.core import MAX_CLOSURE, kohnert_closure
from kohnert.crystal import crystal_graph
from kohnert.poly import polynomial
from kohnert.tableaux import enumerate_tableaux
from kohnert.verify import DEFAULT_RANGE, MAX_SWEEP

from golden import LOCK_1021


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_composition():
    assert parse_composition("1,0,2,1") == (1, 0, 2, 1)
    assert parse_composition("") == ()
    with pytest.raises(Exception):
        parse_composition("1,-2")
    with pytest.raises(Exception):
        parse_composition("1,x")


@pytest.mark.parametrize("comp", ["1_0", "\uff13", "1,\u0663", "+1", "2, 1_1"])
def test_comp_parts_are_ascii_decimal_digits(capsys, comp):
    # int() reads each part of these; "\uff13" is a fullwidth 3, "\u0663" an Arabic-Indic 3
    argv = ["poly", "--kind", "key", f"--comp={comp}"]
    assert cli._parse_exact(argv) is None
    with pytest.raises(SystemExit) as exc:
        cli._parse_full(argv)
    assert exc.value.code == 2
    assert f"argument --comp: invalid composition {comp!r}" in capsys.readouterr().err


def test_comp_parts_keep_their_spaces_and_sign_rules(capsys):
    spaced = ["poly", "--kind", "key", "--comp= 1 , 0,2 "]
    assert cli._parse_exact(spaced).comp == cli._parse_full(spaced).comp == (1, 0, 2)
    negative = ["poly", "--kind", "key", "--comp=1, -2"]
    assert cli._parse_exact(negative) is None
    with pytest.raises(SystemExit):
        cli._parse_full(negative)
    assert "argument --comp: composition parts must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("zeros", [4_000, 4_999])
def test_comp_part_leading_zeros_do_not_count(capsys, zeros):
    # int() reads at most 4,300 digits, leading zeros included
    assert parse_composition("0" * zeros + "1,2") == (1, 2)
    code, out, _ = run_cli(capsys, "poly", "--kind", "key", "--comp", "0" * zeros + "1")
    assert (code, out) == (0, "x1\n")


@pytest.mark.parametrize("part", ["1000", "1" + "0" * 4_999, "0" * 4_000 + "9" * 4_999])
def test_comp_part_with_more_digits_than_the_cell_limit_is_a_usage_error(capsys, part):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--kind", "key", "--comp", f"1,{part}"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    size = part.lstrip("0")
    assert f"composition size {size} or more exceeds the limit of {MAX_CELLS} cells" in err


def test_poly_key_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "--kind", "key", "--comp", "1,0,2,1")
    assert code == 0
    terms = out.strip().split(" + ")
    assert sorted(terms) == sorted(
        [
            "x1^2*x2*x3",
            "x1*x2^2*x3",
            "x1*x2*x3^2",
            "x1^2*x2*x4",
            "x1*x2^2*x4",
            "x1^2*x3*x4",
            "x1*x2*x3*x4",
            "x1*x3^2*x4",
        ]
    )


def test_poly_lock_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "--kind", "lock", "--comp", "0,2,3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert len(data["terms"]) == 7


def test_enum_kkt_counts(capsys):
    code, out, _ = run_cli(capsys, "enum", "--kind", "kkt", "--comp", "0,0", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[]]
    code, out, _ = run_cli(capsys, "enum", "--kind", "lkt", "--comp", "0,2,3", "--format", "json")
    assert len(json.loads(out)) == 7
    code, out, _ = run_cli(capsys, "enum", "--kind", "kd", "--comp", "0,3,2", "--format", "json")
    assert len(json.loads(out)) == 9


def test_enum_ascii_blocks(capsys):
    code, out, _ = run_cli(capsys, "enum", "--kind", "kkt", "--comp", "0,2")
    assert code == 0
    assert out.count("---") == 3


def test_crystal_summary_and_files(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    code, out, _ = run_cli(
        capsys, "crystal", "--kind", "lock", "--comp", "1,0,2,1",
        "--dot", str(dot), "--json", str(js),
    )
    assert code == 0
    assert out == "vertices: 5\nedges: 4\n"
    assert dot.read_text().startswith("digraph crystal {")
    data = json.loads(js.read_text())
    assert sorted(c for _, _, c in data["edges"]) == [2, 2, 2, 3]


def test_map_default_source(capsys):
    code, out, _ = run_cli(capsys, "map", "--comp", "0,2,3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["output"] == [[1, 1, 2], [1, 2, 2], [2, 1, 3], [2, 2, 3], [2, 3, 3]]


def test_map_default_source_searches_no_closure(monkeypatch, capsys):
    import kohnert.core as core
    import kohnert.poly as poly
    import kohnert.tableaux as tableaux

    # the closure's one lock tableau of weight (2, 3), found before the search is refused
    [expected] = [t for t in tableaux.enumerate_tableaux((0, 2, 3), "lock")
                  if core.weight(t.diagram) == (2, 3)]

    def refuse(*args):
        raise AssertionError(f"closure searched for {args}")

    for module in (core, poly, tableaux, cli):
        monkeypatch.setattr(module, "family_closure", refuse)
    monkeypatch.setattr(core, "kohnert_closure", refuse)
    assert tableaux.lock_source_tableau((0, 2, 3)) == expected
    code, out, _ = run_cli(capsys, "map", "--comp", "0,2,3", "--format", "json")
    assert code == 0
    assert [item["input"] for item in json.loads(out)] == [expected.to_json()]


def test_map_all_with_traces(capsys):
    code, out, _ = run_cli(capsys, "map", "--comp", "1,0,2,1", "--all", "--trace", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    assert all("trace" in item for item in data)
    outputs = {json.dumps(item["output"]) for item in data}
    assert len(outputs) == 5  # injective


def test_map_input_file(tmp_path, capsys):
    src = tmp_path / "t.json"
    src.write_text(json.dumps(LOCK_1021["M"].to_json()))
    code, out, _ = run_cli(capsys, "map", "--comp", "1,0,2,1", "--input", str(src), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["output"] == [[1, 1, 1], [3, 1, 3], [3, 2, 3], [4, 1, 4]]


def test_map_input_not_a_lock_tableau(tmp_path, capsys):
    src = tmp_path / "t.json"
    src.write_text(json.dumps([[1, 1, 1]]))
    code, _, err = run_cli(capsys, "map", "--comp", "0,2,3", "--input", str(src))
    assert code == 2
    assert "lock Kohnert tableau" in err


def test_read_tableau_rejects_non_lock_input(tmp_path):
    # apply_unlock does not validate its input: map --input's reader does
    src = tmp_path / "t.json"
    src.write_text(json.dumps([[1, 1, 1]]))
    with pytest.raises(ValueError):
        cli._read_tableau(str(src), (0, 1))


def test_map_input_that_is_not_a_lock_tableau_is_an_input_error(tmp_path, capsys):
    # the cells of a lock tableau of content (1, 0, 2, 1), with labels 3 and 4 swapped
    src = tmp_path / "t.json"
    src.write_text(json.dumps([[1, 2, 1], [3, 1, 4], [3, 2, 4], [4, 2, 3]]))
    code, out, err = run_cli(capsys, "map", "--comp", "1,0,2,1", "--input", str(src))
    assert (code, out) == (2, "")
    assert err == "error: input is not a lock Kohnert tableau of content (1, 0, 2, 1)\n"


def test_map_input_rejects_json_booleans(tmp_path, capsys):
    src = tmp_path / "t.json"
    src.write_text("[[1, 1, true]]")
    code, out, err = run_cli(capsys, "map", "--comp", "1", "--input", str(src))
    assert code == 2
    assert out == ""
    assert "integers" in err


@pytest.mark.parametrize("cell", [[10**12, 1, 1], [1, 10**12, 1]])
def test_map_input_rejects_cells_outside_the_content(tmp_path, capsys, cell):
    src = tmp_path / "t.json"
    src.write_text(json.dumps([cell]))
    code, out, err = run_cli(capsys, "map", "--comp", "1", "--input", str(src))
    assert code == 2
    assert out == ""
    assert "outside rows 1..1 and columns 1..1" in err


def test_map_malformed_json_reports_position(tmp_path, capsys):
    src = tmp_path / "t.json"
    src.write_text("[[1, 1, ]]")
    code, _, err = run_cli(capsys, "map", "--comp", "0,2,3", "--input", str(src))
    assert code == 2
    assert "line 1" in err and "column" in err


def test_map_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "t.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "map", "--comp", "1,2", "--input", str(src))
    assert (code, out) == (2, "")
    assert f"malformed JSON in {src}: nested too deeply to parse" in err


def test_map_input_over_the_size_limit_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "t.json"
    src.write_text("[" + " " * (MAX_INPUT_CHARS - 2) + "]")  # at the limit: read in full
    assert run_cli(capsys, "map", "--comp", "", "--input", str(src))[0] == 0
    src.write_text("[" + " " * (MAX_INPUT_CHARS - 1) + "]")
    code, out, err = run_cli(capsys, "map", "--comp", "", "--input", str(src))
    assert (code, out) == (2, "")
    assert f"error: {src} exceeds the limit of {MAX_INPUT_CHARS} characters" in err


def test_verify_pass(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--check", "positivity", "--max-len", "2", "--max-part", "2"
    )
    assert code == 0
    assert "positivity" in out and "pass" in out
    assert "failures=0" in out
    assert "s" in err  # timing goes to stderr, stdout stays byte-stable


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-len", "2", "--max-part", "2")
    assert code == 0
    assert out.count("pass") == 5


def test_verify_defaults_are_the_default_range():
    # both parsers read the sweep bounds from the one DEFAULT_RANGE
    for parse in (cli._parse, cli._parse_full):
        args = parse(["verify"])
        assert (args.max_len, args.max_part) == (DEFAULT_RANGE.max_length, DEFAULT_RANGE.max_part)


def test_verify_failure_report_lists_each_witness(monkeypatch, capsys):
    import kohnert.verify

    monkeypatch.setitem(
        kohnert.verify.ALL_CHECKS, "connected", lambda a: "planted" if a == (1,) else None
    )
    code, out, err = run_cli(
        capsys, "verify", "--check", "connected", "--max-len", "1", "--max-part", "1"
    )
    assert code == 1
    # (), (0,) and (1,) from the range, then the five spot compositions
    assert out == "connectivity  compositions=8  failures=1  FAIL\n  (1,): planted\n"
    assert re.fullmatch(r"connectivity: \d+\.\d\ds\n", err)


@pytest.mark.parametrize("flag", ["--max-len", "--max-part"])
def test_verify_rejects_negative_bounds(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "--check", "positivity", flag, "-1")
    assert code == 2
    assert "pass" not in out
    assert "nonnegative" in err


@pytest.mark.parametrize("flag", ["--max-len", "--max-part"])
@pytest.mark.parametrize("bound", ["1_0", "+2", "\uff10", "\u0663", "1.0", " ", ""])
def test_sweep_bounds_are_ascii_decimal_digits(capsys, flag, bound):
    # int() reads the first four; "\uff10" is a fullwidth 0, "\u0663" an Arabic-Indic 3
    argv = ["verify", "--check", "connected", f"{flag}={bound}"]
    assert cli._parse_exact(argv) is None
    with pytest.raises(SystemExit) as exc:
        cli._parse_full(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {bound!r}" in capsys.readouterr().err


def test_sweep_bounds_keep_their_spaces_and_sign(capsys):
    spaced = ["verify", "--check", "connected", "--max-len= 2 ", "--max-part", " 1"]
    exact = cli._parse_exact(spaced)
    assert vars(exact) == vars(cli._parse_full(spaced))
    assert (exact.max_len, exact.max_part) == (2, 1)
    # a leading "-" is read, and SweepRange refuses the negative bound
    negative = ["verify", "--check", "connected", "--max-len= -1"]
    assert cli._parse_exact(negative).max_len == cli._parse_full(negative).max_len == -1
    code, out, err = run_cli(capsys, *negative)
    assert (code, out) == (2, "")
    assert "error: sweep bounds must be nonnegative, got max length -1 and max part 3" in err


def test_internal_fault_exit_code(monkeypatch, capsys):
    from kohnert import TheoremViolation
    import kohnert.cli as cli

    def boom(a, kind):
        raise TheoremViolation("induced fault")

    monkeypatch.setattr(cli, "polynomial", boom)
    code, _, err = run_cli(capsys, "poly", "--kind", "key", "--comp", "1")
    assert code == 3
    assert "internal fault" in err


@pytest.mark.parametrize("fmt", ["ascii", "json"])
def test_map_prints_nothing_when_a_later_run_fails(monkeypatch, capsys, fmt):
    # map formats each pair as it goes, but prints only once all are mapped
    from kohnert import TheoremViolation
    import kohnert.cli as cli

    apply_unlock = cli.apply_unlock
    runs = []

    def fail_second(t, a):
        runs.append(t)
        if len(runs) == 2:
            raise TheoremViolation("induced fault")
        return apply_unlock(t, a)

    monkeypatch.setattr(cli, "apply_unlock", fail_second)
    code, out, err = run_cli(capsys, "map", "--all", "--format", fmt, "--comp", "1,0,2,1")
    assert (code, out, len(runs)) == (3, "", 2)
    assert "internal fault" in err


@pytest.mark.parametrize(
    "argv, size",
    [
        (["poly", "--kind", "key", "--comp", "1100"], 1100),
        (["crystal", "--kind", "lock", "--comp", "1100,0"], 1100),
        (["enum", "--kind", "kd", "--comp", "1000000000000"], 10**12),
        (["poly", "--kind", "key", "--comp", "300,300"], 600),  # each part under the limit
        (["verify", "--check", "positivity", "--max-len", "1", "--max-part", "1100"], 1100),
    ],
)
def test_oversized_input_is_a_usage_error(capsys, argv, size):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects --comp itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"size {size} " in err and f"limit of {MAX_CELLS} cells" in err


@pytest.mark.parametrize(
    "comp, weight",
    [
        ("0,0,0,0,6,6,6,6", "(0, 0, 0, 0, 6, 6, 6, 6)"),  # 9,343,620 key tableaux
        ("0,0,512", "(0, 0, 512)"),  # 131,841 key tableaux of 512 cells each
    ],
)
def test_oversized_closure_is_a_usage_error(comp, weight):
    proc = subprocess.run(
        [sys.executable, "-m", "kohnert.cli", "poly", "--kind", "key", "--comp", comp],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"weight {weight} exceeds the limit of {MAX_CLOSURE} diagrams" in proc.stderr


@pytest.mark.parametrize(
    "command",
    [["poly", "--kind", "lock"], ["enum", "--kind", "lkt"], ["crystal", "--kind", "lock"],
     ["map", "--all"]],
)
def test_the_closure_search_refuses_past_its_limit(monkeypatch, capsys, command):
    # the lock closure of 0,2,3 holds 7 diagrams, so under a limit of 6 the search
    # itself refuses it; a key polynomial is refused by its coefficient sums first
    monkeypatch.setattr(kohnert.core, "MAX_CLOSURE", 6)
    for cached in (kohnert_closure, enumerate_tableaux, polynomial, crystal_graph):
        cached.cache_clear()
    code, out, err = run_cli(capsys, *command, "--comp", "0,2,3")
    assert (code, out) == (2, "")
    assert "weight (0, 2, 3) exceeds the limit of 6 diagrams" in err


def test_oversized_sweep_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "kohnert.cli", "verify", "--check", "positivity",
         "--max-len", "8", "--max-part", "6"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert (f"(length <= 8, parts <= 6) holds 6725601 compositions, which exceeds the "
            f"limit of {MAX_SWEEP} compositions") in proc.stderr


def test_overlong_sweep_is_a_usage_error(capsys):
    # --max-part 0 makes the size test pass any length, so the length has its own limit
    code, out, err = run_cli(capsys, "verify", "--max-len", str(MAX_CELLS + 1), "--max-part", "0")
    assert code == 2
    assert out == ""
    assert f"sweep length {MAX_CELLS + 1} (max-len) exceeds the limit of {MAX_CELLS} parts" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--kind", "key", "--comp", str(MAX_CELLS)],
        ["poly", "--kind", "lock", "--comp", str(MAX_CELLS)],
        ["poly", "--kind", "key", "--comp", ",".join(["1"] + ["0"] * (MAX_CELLS - 2) + ["1"])],
        ["verify", "--check", "positivity", "--max-len", "1", "--max-part", str(MAX_CELLS)],
        ["verify", "--check", "positivity", "--max-len", str(MAX_CELLS), "--max-part", "0"],
        # lock closures far past MAX_CLOSURE: map builds its source without one
        ["map", "--comp", ",".join(["0"] * 63 + ["64"])],
        ["map", "--comp", ",".join(["0"] * (MAX_CELLS - 1) + [str(MAX_CELLS)])],
    ],
)
def test_inputs_at_the_size_limit_run(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0


@pytest.mark.parametrize(
    "command",
    [["enum", "--kind", "kd"], ["poly", "--kind", "key"], ["crystal", "--kind", "lock"], ["map"]],
)
def test_overlong_composition_is_a_usage_error(capsys, command):
    comp = ",".join(["1"] + ["0"] * 598 + ["1"])  # 600 parts, 2 cells
    with pytest.raises(SystemExit) as exc:
        main([*command, "--comp", comp])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"composition length 600 exceeds the limit of {MAX_CELLS} parts" in err


def test_empty_composition(capsys):
    code, out, _ = run_cli(capsys, "crystal", "--kind", "key", "--comp", "")
    assert code == 0
    assert out == "vertices: 1\nedges: 0\n"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "kohnert.cli", "poly", "--kind", "nope", "--comp", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enum", "--kind", "kkt", "--comp=--"], "argument --comp: invalid composition '--'"),
        (["poly", "--kind=--", "--comp", "1"], "argument --kind: invalid choice: '--'"),
        (["poly", "--kind", "key", "--comp", "1", "--format=--"],
         "argument --format: invalid choice: '--'"),
        (["verify", "--check=--"], "argument --check: invalid choice: '--'"),
        (["verify", "--max-len=--"], "argument --max-len: invalid int value: '--'"),
        (["verify", "--max-len", "1", "--max-part=--"],
         "argument --max-part: invalid int value: '--'"),
    ],
)
def test_a_bare_double_dash_value_is_a_usage_error(capsys, argv, message):
    # argparse before Python 3.13 turns "--opt=--" into [] without checking it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--input", "--dot", "--json"])
def test_a_double_dash_path_names_a_file_on_every_python(tmp_path, monkeypatch, capsys, option):
    # argparse before Python 3.13 turns "--input=--" into [], which read as
    # "not given"; the file named "--" is read or written, as on 3.13
    monkeypatch.chdir(tmp_path)
    if option == "--input":
        (tmp_path / "--").write_text(json.dumps(LOCK_1021["M"].to_json()))
        code, out, _ = run_cli(capsys, "map", "--comp", "1,0,2,1", "--format", "json", "--input=--")
        assert json.loads(out)[0]["output"] == [[1, 1, 1], [3, 1, 3], [3, 2, 3], [4, 1, 4]]
    else:
        code, out, _ = run_cli(capsys, "crystal", "--kind", "key", "--comp", "1,2", f"{option}=--")
        assert out == "vertices: 2\nedges: 1\n"
        assert (tmp_path / "--").read_text().startswith("digraph" if option == "--dot" else "{")
    assert code == 0


#: A ``verify`` timing line on stderr, such as "positivity: 0.12s".
TIMING_LINE = re.compile(r"^([a-z+]+): \d+\.\d\ds$", re.MULTILINE)


def outcome(argv):
    """main's exit code, stdout and stderr on ``argv``, with the seconds of
    each ``verify`` timing line on stderr blanked: a cold run and a warm run
    of the same check round them differently."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on help and usage errors
            code = exc.code
    return code, out.getvalue(), TIMING_LINE.sub(r"\1: <seconds>s", err.getvalue())


def full_parser_outcome(argv):
    """The outcome when the full parser parses ``argv``, as it does for
    help, unknown commands and errors the top-level parser reports."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "_parse", cli._parse_full)
        return outcome(argv)


@pytest.mark.parametrize(
    "argv",
    [
        *([name, "--help"] for name in cli.COMMANDS),
        *([name, "-h"] for name in cli.COMMANDS),
        ["poly", "--kind", "key"],  # --comp missing
        ["crystal", "--kind", "kkt", "--comp", "1"],  # bad --kind choice
        ["enum", "--kind", "kkt", "--comp=--"],
        ["poly", "--kind", "key", "--comp", "1", "extra"],  # reported by the top-level parser
        ["map", "--comp", "1", "--all", "--input", "t.json"],
        ["poly", "--ki", "key", "--comp", "1,0,2"],  # abbreviated option
        ["poly", "--kind=lock", "--comp=0,2,1", "--format=json"],
        ["map", "--comp=1,0,2", "--all", "--format=json"],
        ["poly", "--kind", "key", "--comp", "1", "--comp", "0,2"],  # the last --comp wins
        ["poly", "--kind", "key", "--comp", "1", "--", "x"],
        ["map", "--comp", "1", "--input", "-h"],  # an option, not a value
        ["crystal", "--kind", "key", "--comp", "1", "--dot", "-x"],
        ["verify", "--check", "positivity", "--max-len", "-1"],  # a negative number
        ["crystal", "--kind", "key", "--comp", "", "--json="],
        ["nosuch"],
        ["-h"],
        [],
    ],
)
def test_subcommand_parser_matches_full_parser(argv):
    assert outcome(argv) == full_parser_outcome(argv)


#: `--comp` values, among them the empty composition and one with spaces.
COMPS = ("1,0,2", "0,2", "1", "", " 1, 2")

#: Each subcommand's options and values that its parser accepts (None for a
#: bare flag).  A path names a file the test writes, one it reads, or none.
DRAWN_OPTIONS = {
    "enum": {"--kind": ("kkt", "lkt", "kd"), "--comp": COMPS, "--format": ("ascii", "json")},
    "poly": {"--kind": ("key", "lock"), "--comp": COMPS, "--format": ("text", "json")},
    "crystal": {"--kind": ("key", "lock"), "--comp": COMPS, "--dot": ("g.dot",),
                "--json": ("g.json",)},
    "map": {"--comp": COMPS, "--all": None, "--input": ("t.json", "nosuch.json", ""),
            "--trace": None, "--format": ("ascii", "json")},
    "verify": {"--check": ("all", "positivity", "connected"), "--max-len": ("0", "1", "2"),
               "--max-part": ("0", "1", "2")},
}
#: Always drawn: the required options, and --max-len, without which the slow
#: default sweep would run.
KEPT = ("--kind", "--comp", "--max-len")
#: Values that an option's type or choices refuse, or that argparse reads
#: apart: empty, starting with "-", and "--".
ODD_VALUES = ("x", "1,-2", "", "-1", "-h", "--")


@st.composite
def drawn_argv(draw):
    """A subcommand and its options in any order, spelled ``--opt value`` or
    ``--opt=value``, then up to three changes: repeat an option, abbreviate
    it, give it an odd value, drop it, or insert a stray "-h", "--" or
    positional."""
    name = draw(st.sampled_from(sorted(DRAWN_OPTIONS)))
    values = DRAWN_OPTIONS[name]
    options = []  # [flag, value or None, joined by "="]
    for flag in draw(st.permutations(sorted(values))):
        if flag in KEPT or draw(st.booleans()):
            value = None if values[flag] is None else draw(st.sampled_from(values[flag]))
            options.append([flag, value, draw(st.booleans())])
    for _ in range(draw(st.integers(0, 3))):
        if not options:
            break
        i = draw(st.integers(0, len(options) - 1))
        change = draw(st.sampled_from(["repeat", "abbreviate", "odd", "drop", "stray"]))
        if change == "repeat":
            options.insert(draw(st.integers(0, len(options))), list(options[i]))
        elif change == "abbreviate":
            options[i][0] = options[i][0][:4]
        elif change == "odd":
            options[i][1] = draw(st.sampled_from(ODD_VALUES))
        elif change == "drop" and options[i][0] != "--max-len":
            del options[i]
        elif change == "stray":
            options.insert(i, [draw(st.sampled_from(["-h", "--", "extra"])), None, False])
    argv = [name]
    for flag, value, joined in options:
        argv += [flag] if value is None else [f"{flag}={value}"] if joined else [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=drawn_argv())
def test_subcommand_parser_matches_full_parser_on_drawn_arguments(tmp_path_factory, argv):
    exact = cli._parse_exact(argv)
    if exact is not None:
        assert vars(exact) == vars(cli._parse_full(argv)), argv
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(tmp_path_factory.getbasetemp())
        (tmp_path_factory.getbasetemp() / "t.json").write_text(
            json.dumps(LOCK_1021["M"].to_json()))
        assert outcome(argv) == full_parser_outcome(argv), argv


def parsers_built(argv):
    """How many ``argparse.ArgumentParser``s ``_parse`` builds on ``argv``."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                cli._parse(argv)
            except SystemExit:  # help and usage errors
                pass
    return len(built)


@pytest.mark.parametrize(
    "argv",
    [
        # the query workloads' commands
        *(["poly", "--kind", kind, "--format", "json", "--comp", "1,0,2,0,1"]
          for kind in ("key", "lock")),
        *(["crystal", "--kind", kind, "--comp", "1,0,2,0,1"] for kind in ("key", "lock")),
        ["map", "--all", "--format", "json", "--comp", "1,0,2,0,1"],
        # the CI smoke job's commands that get past parsing
        ["verify", "--max-len", "3", "--max-part", "2"],
        ["verify"],
        *(["enum", "--kind", kind, "--comp", "1,0,2,1"] for kind in ("kkt", "lkt")),
        *(["poly", "--kind", kind, "--comp", "1,0,2,1"] for kind in ("key", "lock")),
        ["map", "--all", "--comp", "1,0,2,1"],
        ["poly", "--kind", "key", "--comp", "0,0,0,0,6,6,6,6"],
        ["map", "--comp", "1,2", "--input", "nested.json"],
        ["verify", "--max-len", "8", "--max-part", "6"],
        ["poly", "--kind", "lock", "--comp", "0,2,3", "--format", "json"],
        ["poly", "--kind=lock", "--comp=0,2,3", "--format=json"],
    ],
)
def test_exact_arguments_build_no_parser(argv):
    assert parsers_built(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["crystal", "-h"],
        ["poly", "--help"],
        [],
        ["nosuch"],
        ["poly", "--kind", "key"],  # --comp missing
        ["poly", "--ki", "lock", "--co", "0,2,3", "--fo", "json"],  # abbreviations
        ["poly", "--kind", "key", "--comp", "1", "--comp", "0,2"],  # a repeat
        ["poly", "--kind", "key", "--comp", "1", "extra"],
        ["poly", "--kind", "key", "--comp", "1100"],  # refused by parse_composition
    ],
)
def test_only_the_full_parser_cases_build_it(argv):
    assert parsers_built(argv) == 1 + len(cli.COMMANDS)


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_every_option_keyword_is_one_the_exact_parser_reads(name):
    # a keyword such as nargs would make argparse read the option apart
    # from _parse_exact, which reads a bare flag or one value
    for flag, option in cli.COMMANDS[name].options.items():
        assert set(option) <= {"type", "choices", "default", "required", "action",
                               "help", "metavar"}, flag
        assert option.get("action", "store_true") == "store_true", flag


def test_stdout_byte_stable_across_processes():
    argv = [sys.executable, "-m", "kohnert.cli", "enum", "--kind", "lkt", "--comp", "0,2,3"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kohnert.cli", "poly", "--kind", "lock", "--comp", "0,2,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("+") == 6
