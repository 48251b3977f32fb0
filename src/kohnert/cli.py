"""Command-line interface: enumeration, polynomials, crystals, the unlock
map with traces, and verification sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal theorem-violation fault.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import MAX_CELLS, TheoremViolation, family_closure
from .crystal import crystal_graph
from .poly import polynomial, render_text
from .tableaux import LabeledDiagram, enumerate_tableaux, lock_source_tableau, validate_lkt
from .unlock import apply_unlock
from .verify import ALL_CHECKS, DEFAULT_RANGE, SPOT_COMPOSITIONS, SweepRange, run_checks

#: The most characters ``map --input`` reads.  A JSON tableau of MAX_CELLS
#: cells, as ``json.dumps`` writes it, is under 10 KiB, so 1 MiB is far above
#: any valid input; the bound keeps an endless file such as /dev/zero from
#: being read into memory whole.
MAX_INPUT_CHARS = 1 << 20


def parse_composition(text: str) -> tuple[int, ...]:
    """Parse '1,0,2,1' (trailing zeros significant; empty string allowed);
    at most MAX_CELLS parts and MAX_CELLS cells."""
    text = text.strip()
    if not text:
        return ()
    chunks = [chunk.strip() for chunk in text.split(",")]
    for chunk in chunks:
        # int() alone would also read "1_0", "+1" and non-ASCII digits such as "３"
        digits = chunk.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"invalid composition {text!r}")
    # int() reads at most 4,300 digits, leading zeros included, so they go first
    significant = [chunk.lstrip("-0") or "0" for chunk in chunks]
    if "-" in text and any(c[:1] == "-" and d != "0" for c, d in zip(chunks, significant)):
        raise argparse.ArgumentTypeError("composition parts must be nonnegative")
    if len(chunks) > MAX_CELLS:
        raise argparse.ArgumentTypeError(
            f"composition length {len(chunks)} exceeds the limit of {MAX_CELLS} parts"
        )
    longest = max(significant, key=len)
    if len(longest) > len(str(MAX_CELLS)):  # over the limit alone: not read
        raise argparse.ArgumentTypeError(
            f"composition size {longest} or more exceeds the limit of {MAX_CELLS} cells"
        )
    parts = tuple(map(int, significant))
    if sum(parts) > MAX_CELLS:
        raise argparse.ArgumentTypeError(
            f"composition size {sum(parts)} exceeds the limit of {MAX_CELLS} cells"
        )
    return parts


def parse_bound(text: str) -> int:
    """Parse a sweep bound: ASCII decimal digits after an optional "-", with
    spaces around them allowed, the spellings a composition part may take;
    anything else is refused in the words argparse uses for ``int``."""
    digits = text.strip().removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # int() reads at most 4,300 digits
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _JsonText(dict):
    """One command's table from a labeled-diagram entry ``((row, col), label)``
    to its JSON text ``"[row, col, label]"``, or from a bare cell ``(row, col)``
    to ``"[row, col]"``.  A key is formatted the first time it is seen.

    The tableaux of one content share most of their entries, so each distinct
    entry is formatted once per command.  The text equals ``json.dumps`` with
    its default separators because coordinates and labels are ints: the
    public constructors demand ``type(x) is int``, and the trusted builders
    make nothing else."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> str:
        first, second = key
        if type(first) is tuple:
            text = f"[{first[0]}, {first[1]}, {second}]"
        else:
            text = f"[{first}, {second}]"
        self[key] = text
        return text

    def list_of(self, keys) -> str:
        """The JSON list of ``keys``' texts: a tableau's ``entries`` or a
        diagram's ``cells``."""
        return _json_list(map(self.__getitem__, keys))


def _json_list(texts) -> str:
    """The JSON list of the JSON texts ``texts``."""
    return "[" + ", ".join(texts) + "]"


def _cmd_enum(args) -> int:
    if args.kind == "kd":
        items = family_closure(args.comp, "key")
    else:
        items = enumerate_tableaux(args.comp, {"kkt": "key", "lkt": "lock"}[args.kind])
    if args.format == "json":
        text = _JsonText()
        print(_json_list(
            text.list_of(item.cells if args.kind == "kd" else item.entries) for item in items
        ))
    else:
        for item in items:
            print(item.ascii())
            print()
    return 0


def _cmd_poly(args) -> int:
    p = polynomial(args.comp, args.kind)
    print(json.dumps(p.to_json()) if args.format == "json" else render_text(p))
    return 0


def _cmd_crystal(args) -> int:
    g = crystal_graph(args.comp, args.kind)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(g.to_dot() + "\n")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(g.to_json(), fh)
            fh.write("\n")
    print(f"vertices: {len(g.vertices)}")
    print(f"edges: {len(g.edges)}")
    return 0


def _read_tableau(path: str, a: tuple[int, ...]) -> LabeledDiagram:
    """The lock Kohnert tableau of content ``a`` that ``path`` holds as JSON.

    It is the one tableau ``map`` takes from outside, and ``apply_unlock``
    does not validate its input, so it is validated here: anything else is
    a ValueError."""
    with open(path) as fh:
        text = fh.read(MAX_INPUT_CHARS + 1)
    if len(text) > MAX_INPUT_CHARS:
        raise ValueError(f"{path} exceeds the limit of {MAX_INPUT_CHARS} characters")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ValueError(f"malformed JSON in {path}: nested too deeply to parse") from exc
    # a lock tableau of content a lies in rows 1..len(a) and columns 1..max(a);
    # checked first because building a diagram allocates by its coordinates
    n, m = len(a), max(a, default=0)
    for p in data if isinstance(data, list) else ():
        if isinstance(p, list) and len(p) == 3 and all(type(x) is int for x in p):
            if not (1 <= p[0] <= n and 1 <= p[1] <= m):
                raise ValueError(
                    f"cell ({p[0]}, {p[1]}) lies outside rows 1..{n} and columns 1..{m}, "
                    f"so no lock Kohnert tableau of content {a} has it"
                )
    t = LabeledDiagram.from_json(data)
    if not validate_lkt(t, a):
        raise ValueError(f"input is not a lock Kohnert tableau of content {a}")
    return t


def _cmd_map(args) -> int:
    if args.all:
        sources = enumerate_tableaux(args.comp, "lock")
    elif args.input:
        sources = (_read_tableau(args.input, args.comp),)
    else:
        sources = (lock_source_tableau(args.comp),)
    # each pair's text is formatted as soon as it is mapped, and only the
    # text is kept: stdout gets it all at once, or nothing if a run raises
    text = _JsonText()
    items = []
    for t in sources:
        image, trace = apply_unlock(t, args.comp)
        if args.format == "json":
            item = f'{{"input": {text.list_of(t.entries)}, "output": {text.list_of(image.entries)}'
            if args.trace:
                item += f', "trace": {json.dumps(trace.to_json())}'
            items.append(item + "}")
        else:
            item = f"{t.ascii()}\n  |\n  v\n{image.ascii()}\n"
            if args.trace:
                item += json.dumps(trace.to_json()) + "\n"
            items.append(item)
    print(_json_list(items) if args.format == "json" else "\n".join(items))
    return 0


def _cmd_verify(args) -> int:
    names = list(ALL_CHECKS) if args.check == "all" else [args.check]
    reports = run_checks(names, SweepRange(args.max_len, args.max_part), SPOT_COMPOSITIONS)
    width = max(len(r.check) for r in reports)
    failed = False
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.check.ljust(width)}  compositions={r.compositions_tested}  "
              f"failures={len(r.failures)}  {status}")
        for a, witness in r.failures:
            print(f"  {a}: {witness}")
        print(f"{r.check}: {r.elapsed_s:.2f}s", file=sys.stderr)
        failed = failed or not r.passed
    return 1 if failed else 0


@dataclass(frozen=True)
class Command:
    """A subcommand: its help text, its handler, its options in help order
    as ``{flag: add_argument's keyword arguments}``, and the flags of which
    at most one may be given."""

    help: str
    run: Callable[[argparse.Namespace], int]
    options: dict[str, dict]
    exclusive: tuple[str, ...] = ()


_COMP = {"type": parse_composition, "required": True}

#: Every subcommand and its options, read by both parsers.  ``_parse_exact``
#: reads ``type`` (whose refusals are worded as argparse's), ``choices``,
#: ``default``, ``required`` and ``action="store_true"``.
COMMANDS = {
    "enum": Command("enumerate tableaux or diagrams", _cmd_enum, {
        "--kind": {"choices": ("kkt", "lkt", "kd"), "required": True},
        "--comp": _COMP,
        "--format": {"choices": ("ascii", "json"), "default": "ascii"},
    }),
    "poly": Command("print a key or lock polynomial", _cmd_poly, {
        "--kind": {"choices": ("key", "lock"), "required": True},
        "--comp": _COMP,
        "--format": {"choices": ("text", "json"), "default": "text"},
    }),
    "crystal": Command("build a crystal graph", _cmd_crystal, {
        "--kind": {"choices": ("key", "lock"), "required": True},
        "--comp": _COMP,
        "--dot": {"metavar": "PATH", "help": "write DOT to PATH"},
        "--json": {"metavar": "PATH", "help": "write graph JSON to PATH"},
    }),
    "map": Command("apply the unlock map to lock tableaux", _cmd_map, {
        "--comp": _COMP,
        "--all": {"action": "store_true", "help": "map every lock tableau"},
        "--input": {"metavar": "FILE", "help": "read one tableau as JSON"},
        "--trace": {"action": "store_true", "help": "also print the step trace"},
        "--format": {"choices": ("ascii", "json"), "default": "ascii"},
    }, exclusive=("--all", "--input")),
    "verify": Command("run verification sweeps", _cmd_verify, {
        "--check": {"choices": tuple(ALL_CHECKS) + ("all",), "default": "all"},
        "--max-len": {"type": parse_bound, "default": DEFAULT_RANGE.max_length},
        "--max-part": {"type": parse_bound, "default": DEFAULT_RANGE.max_part},
    }),
}


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag``'s value in."""
    return flag[2:].replace("-", "_")


def _convert(option: dict, text: str) -> object:
    """``text`` as the value of ``option``; ArgumentTypeError, worded as
    argparse words it, when its type or choices refuse it."""
    value = option.get("type", str)(text)
    choices = option.get("choices")
    if choices is not None and value not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The full ``kohnert`` parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="kohnert",
        description="Exact enumeration of Kohnert diagrams, key/lock tableaux, "
        "their polynomials and crystals, and the unlock map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        group = p.add_mutually_exclusive_group() if command.exclusive else None
        for flag, option in command.options.items():
            (group if flag in command.exclusive else p).add_argument(flag, **option)
    return parser


def _parse_full(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the full parser, which reports every usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, option in COMMANDS[args.command].options.items():
        if getattr(args, _dest(flag)) == []:
            # argparse before Python 3.13 turns "--opt=--" into [] without
            # converting or checking it; convert "--" as 3.13 does
            try:
                setattr(args, _dest(flag), _convert(option, "--"))
            except argparse.ArgumentTypeError as exc:
                parser.error(f"argument {flag}: {exc}")
    return args


def _parse_exact(argv: list[str]) -> argparse.Namespace | None:
    """The full parser's namespace for ``argv``, without building it, when
    ``argv`` is a command name followed by fully spelled ``--flag``,
    ``--opt value`` and ``--opt=value`` tokens: no option twice, no value
    starting with "-", every value valid, every required option given and
    at most one of an exclusive pair.  None for anything else."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        option = command.options.get(flag)
        if option is None or flag in given:
            return None
        if "action" in option:  # store_true, the one action in the table
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            text = next(tokens, "-")  # a missing value fails the test below
        if text.startswith("-"):
            return None
        try:
            given[flag] = _convert(option, text)
        except argparse.ArgumentTypeError:
            return None
    if sum(flag in given for flag in command.exclusive) > 1:
        return None
    if any(option.get("required") and flag not in given
           for flag, option in command.options.items()):
        return None
    return argparse.Namespace(command=argv[0], **{
        _dest(flag): given.get(flag, option.get("default", False if "action" in option else None))
        for flag, option in command.options.items()
    })


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser would, building it only when
    ``argv`` is not in the exact form ``_parse_exact`` reads.

    Help, every usage error and every unusual spelling (abbreviations,
    repeats, "--", values starting with "-") go to the full parser, so their
    messages and exit codes are its own."""
    return _parse_exact(argv) or _parse_full(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[args.command].run(args)
    except TheoremViolation as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
