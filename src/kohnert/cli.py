"""Command-line interface: enumeration, polynomials, crystals, the unlock
map with traces, and verification sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal theorem-violation fault.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .core import TheoremViolation, family_closure
from .crystal import crystal_graph
from .poly import polynomial, render_text
from .tableaux import LabeledDiagram, enumerate_tableaux, lock_source_tableau
from .unlock import apply_unlock
from .verify import ALL_CHECKS, SPOT_COMPOSITIONS, SweepRange, run_checks

#: The most cells, and the most parts, a composition may have.  It bounds
#: input before ``key_diagram`` or ``lock_diagram`` builds a diagram cell by
#: cell; ``core.MAX_CLOSURE`` bounds the closure search that follows.  The
#: part bound is needed as well: the work per closure diagram grows with the
#: length, and MAX_CLOSURE alone would admit 1,0,...,0,1 with about 50,000
#: parts.
MAX_CELLS = 512


def parse_composition(text: str) -> tuple[int, ...]:
    """Parse '1,0,2,1' (trailing zeros significant; empty string allowed);
    at most MAX_CELLS parts and MAX_CELLS cells."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(chunk) for chunk in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid composition {text!r}") from exc
    if any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError("composition parts must be nonnegative")
    if len(parts) > MAX_CELLS:
        raise argparse.ArgumentTypeError(
            f"composition length {len(parts)} exceeds the limit of {MAX_CELLS} parts"
        )
    if sum(parts) > MAX_CELLS:
        raise argparse.ArgumentTypeError(
            f"composition size {sum(parts)} exceeds the limit of {MAX_CELLS} cells"
        )
    return parts


def _enum_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("kkt", "lkt", "kd"), required=True)
    p.add_argument("--comp", type=parse_composition, required=True)
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")


def _cmd_enum(args) -> int:
    if args.kind == "kd":
        items = family_closure(args.comp, "key")
    else:
        items = enumerate_tableaux(args.comp, {"kkt": "key", "lkt": "lock"}[args.kind])
    if args.format == "json":
        print(json.dumps([item.to_json() for item in items]))
    else:
        for item in items:
            print(item.ascii())
            print()
    return 0


def _poly_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("key", "lock"), required=True)
    p.add_argument("--comp", type=parse_composition, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_poly(args) -> int:
    p = polynomial(args.comp, args.kind)
    print(json.dumps(p.to_json()) if args.format == "json" else render_text(p))
    return 0


def _crystal_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("key", "lock"), required=True)
    p.add_argument("--comp", type=parse_composition, required=True)
    p.add_argument("--dot", metavar="PATH", help="write DOT to PATH")
    p.add_argument("--json", metavar="PATH", help="write graph JSON to PATH")


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
    with open(path) as fh:
        text = fh.read()
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
    return LabeledDiagram.from_json(data)


def _map_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--comp", type=parse_composition, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="map every lock tableau")
    group.add_argument("--input", metavar="FILE", help="read one tableau as JSON")
    p.add_argument("--trace", action="store_true", help="also print the step trace")
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")


def _cmd_map(args) -> int:
    if args.all:
        sources = enumerate_tableaux(args.comp, "lock")
    elif args.input:
        sources = (_read_tableau(args.input, args.comp),)
    else:
        sources = (lock_source_tableau(args.comp),)
    results = [(t, *apply_unlock(t, args.comp)) for t in sources]
    if args.format == "json":
        payload = []
        for t, image, trace in results:
            item: dict = {"input": t.to_json(), "output": image.to_json()}
            if args.trace:
                item["trace"] = trace.to_json()
            payload.append(item)
        print(json.dumps(payload))
    else:
        for t, image, trace in results:
            print(t.ascii())
            print("  |")
            print("  v")
            print(image.ascii())
            if args.trace:
                print(json.dumps(trace.to_json()))
            print()
    return 0


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--check", choices=tuple(ALL_CHECKS) + ("all",), default="all")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--max-part", type=int, default=3)


def _cmd_verify(args) -> int:
    names = list(ALL_CHECKS) if args.check == "all" else [args.check]
    rng = SweepRange(max_length=args.max_len, max_part=args.max_part)
    if rng.max_length * rng.max_part > MAX_CELLS:
        raise ValueError(
            f"sweep size {rng.max_length * rng.max_part} (max-len * max-part) "
            f"exceeds the limit of {MAX_CELLS} cells"
        )
    reports = run_checks(names, rng, SPOT_COMPOSITIONS)
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


#: Each subcommand's help text, the function adding its arguments, and its handler.
COMMANDS = {
    "enum": ("enumerate tableaux or diagrams", _enum_arguments, _cmd_enum),
    "poly": ("print a key or lock polynomial", _poly_arguments, _cmd_poly),
    "crystal": ("build a crystal graph", _crystal_arguments, _cmd_crystal),
    "map": ("apply the unlock map to lock tableaux", _map_arguments, _cmd_map),
    "verify": ("run verification sweeps", _verify_arguments, _cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    """The full ``kohnert`` parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="kohnert",
        description="Exact enumeration of Kohnert diagrams, key/lock tableaux, "
        "their polynomials and crystals, and the unlock map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse_full(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the full parser, which reports every usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not isinstance(getattr(args, "comp", ()), tuple):
        # argparse before Python 3.13 turns "--comp=--" into [] without parsing it
        parser.error(f"argument --comp: invalid composition {args.comp!r}")
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser would, building only the named
    subcommand's parser when that parser accepts the rest of ``argv``.

    The full parser hands a subcommand's arguments to the same parser, so
    help and errors inside the subcommand read the same either way; leftover
    arguments and a ``--comp=--`` go to the full parser, which reports them
    with its own usage line.
    """
    name = argv[0] if argv else None
    if name in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"kohnert {name}")
        COMMANDS[name][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest and isinstance(getattr(args, "comp", ()), tuple):
            args.command = name
            return args
    return _parse_full(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[args.command][2](args)
    except TheoremViolation as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
