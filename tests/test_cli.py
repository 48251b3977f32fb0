import json
import subprocess
import sys

import pytest

import kohnert.cli as cli
from kohnert.cli import MAX_CELLS, main, parse_composition
from kohnert.core import MAX_CLOSURE
from kohnert.verify import MAX_SWEEP

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


@pytest.mark.parametrize("flag", ["--max-len", "--max-part"])
def test_verify_rejects_negative_bounds(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "--check", "positivity", flag, "-1")
    assert code == 2
    assert "pass" not in out
    assert "nonnegative" in err


def test_internal_fault_exit_code(monkeypatch, capsys):
    from kohnert import TheoremViolation
    import kohnert.cli as cli

    def boom(a, kind):
        raise TheoremViolation("induced fault")

    monkeypatch.setattr(cli, "polynomial", boom)
    code, _, err = run_cli(capsys, "poly", "--kind", "key", "--comp", "1")
    assert code == 3
    assert "internal fault" in err


@pytest.mark.parametrize(
    "argv, size",
    [
        (["poly", "--kind", "key", "--comp", "1100"], 1100),
        (["crystal", "--kind", "lock", "--comp", "1100,0"], 1100),
        (["enum", "--kind", "kd", "--comp", "1000000000000"], 10**12),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--kind", "key", "--comp", str(MAX_CELLS)],
        ["poly", "--kind", "lock", "--comp", str(MAX_CELLS)],
        ["verify", "--check", "positivity", "--max-len", "1", "--max-part", str(MAX_CELLS)],
    ],
)
def test_inputs_at_the_size_limit_run(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0


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


def test_bare_double_dash_composition_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enum", "--kind", "kkt", "--comp=--"])
    assert exc.value.code == 2
    assert "invalid composition" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        *([name, "--help"] for name in cli.COMMANDS),
        ["poly", "--kind", "key"],  # --comp missing
        ["crystal", "--kind", "kkt", "--comp", "1"],  # bad --kind choice
        ["enum", "--kind", "kkt", "--comp=--"],
        ["poly", "--kind", "key", "--comp", "1", "extra"],  # reported by the top-level parser
        ["map", "--comp", "1", "--all", "--input", "t.json"],
        ["nosuch"],
        ["-h"],
        [],
    ],
)
def test_subcommand_parser_matches_full_parser(monkeypatch, capsys, argv):
    build = cli.build_parser
    built = []

    def outcome():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, *capsys.readouterr()

    monkeypatch.setattr(cli, "build_parser", lambda names: built.append(list(names)) or build(names))
    own = outcome()
    assert built == [argv[:1] if argv and argv[0] in cli.COMMANDS else list(cli.COMMANDS)]
    monkeypatch.setattr(cli, "build_parser", lambda names: build())
    assert outcome() == own


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
