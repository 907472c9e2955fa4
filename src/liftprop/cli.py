"""Command-line interface.

Exit codes: 0 when all queries executed (a failing lifting property is a
successful query), 1 on parse, validation, or usage errors, and silently
when stdout is closed early, 2 on internal invariant violations.  Results
go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .lifting import (
    HomCache,
    PROPERTY_IDS,
    SPACE_PROPERTIES,
    characterize,
    epi_lift_result,
    lifting_check,
    mono_lift_result,
    orthogonal_class,
)
from .notation import (
    CheckQuery,
    CountsOutcome,
    EnumerateQuery,
    Env,
    EpiQuery,
    HomQuery,
    LiftOutcome,
    LiftQuery,
    MapListOutcome,
    MonoQuery,
    OrthogonalQuery,
    Outcome,
    ParseError,
    Query,
    SIZE_CAPS,
    ValidationError,
    elaborate,
    encode_result,
    parse,
    print_query,
    print_result,  # not called here; perfbench calls and wraps cli.print_result
    result_lines,
    size_refusal,
)
from .preorder import enumerate_preorders
from .verify import verify_paper


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, but exit code 2 is reserved
    # for internal invariant violations here; usage errors are exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="liftprop",
        description="Decide lifting properties of monotone maps between finite preorders.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_flags(p, with_input=False, max_size_of=None):
        p.add_argument("--machine", action="store_true", help="emit one JSON record per result")
        if with_input:
            p.add_argument("--input", metavar="PATH", default=None,
                           help="load space/map declarations from a program file")
        if max_size_of:
            low, high, _ = SIZE_CAPS[max_size_of]
            p.add_argument("--max-size", dest="max_size", type=int, default=3, metavar="N",
                           help=f"space size bound, {low} to {high} (default 3)")

    p = sub.add_parser("run", help="execute all queries in a program file")
    p.add_argument("path", help="program file")
    add_flags(p)

    p = sub.add_parser("lift", help="decide whether one map lifts against another")
    p.add_argument("left", help="left map name")
    p.add_argument("right", help="right map name")
    add_flags(p, with_input=True)

    p = sub.add_parser("check", help="decide a named property via its lifting form")
    p.add_argument("prop", help="one of " + ", ".join(PROPERTY_IDS))
    p.add_argument("name", help="space or map name, depending on the property")
    add_flags(p, with_input=True)

    p = sub.add_parser("orthogonal", help="orthogonal class of test maps over a universe")
    p.add_argument("side", choices=("left", "right"))
    p.add_argument("tests", nargs="*", help="test map names")
    add_flags(p, with_input=True, max_size_of="orthogonal")

    p = sub.add_parser("enumerate", help="count labeled preorders per carrier size")
    low, high, _ = SIZE_CAPS["enumerate"]
    p.add_argument("size", type=int, help=f"largest carrier size, {low} to {high}")
    add_flags(p)

    p = sub.add_parser("hom", help="list all monotone maps between two spaces")
    p.add_argument("source", help="source space name")
    p.add_argument("target", help="target space name")
    add_flags(p, with_input=True)

    p = sub.add_parser("verify-paper", help="run the oracle-agreement suites")
    add_flags(p, max_size_of="verify-paper")
    return parser


def _named(env: Env, kind: str, name: str):
    """The space or map called `name`, refusing a name not in scope."""
    table = env.spaces if kind == "space" else env.maps
    if name not in table:
        raise ValidationError(f"unknown {kind} {name!r}")
    return table[name]


def execute_query(query: Query, env: Env) -> Outcome:
    """Evaluate one query against named spaces and maps.

    Every name and size is checked here, before any enumeration, so a
    query naming a space, map or property not in scope, or with a size
    outside SIZE_CAPS, is refused with a ValidationError.  Queries share
    the per-size domain of spaces, which is immutable: the labeled
    preorders and the class_of of each, each size built once per process
    on first use.  Hom-sets stay per query: every query gets a fresh
    HomCache.
    """
    cache = HomCache()
    text = print_query(query)
    if hasattr(query, "size"):  # its text starts with its SIZE_CAPS keyword
        refusal = size_refusal(text.partition(" ")[0], query.size)
        if refusal is not None:
            raise ValidationError(refusal)
    if isinstance(query, LiftQuery):
        left, right = _named(env, "map", query.left), _named(env, "map", query.right)
        return LiftOutcome(text, lifting_check(left, right, cache))
    if isinstance(query, CheckQuery):
        if query.prop not in PROPERTY_IDS:
            raise ValidationError(
                f"unknown property {query.prop!r}; expected one of {', '.join(PROPERTY_IDS)}"
            )
        kind = "space" if query.prop in SPACE_PROPERTIES else "map"
        return LiftOutcome(text, characterize(query.prop, _named(env, kind, query.arg), cache))
    if isinstance(query, (MonoQuery, EpiQuery)):
        decide = mono_lift_result if isinstance(query, MonoQuery) else epi_lift_result
        f = _named(env, "map", query.name)
        return LiftOutcome(text, decide(f, tuple(enumerate_preorders(query.size)), cache))
    if isinstance(query, OrthogonalQuery):
        tests = [_named(env, "map", t) for t in query.tests]
        spaces = enumerate_preorders(query.size)
        return MapListOutcome(text, tuple(orthogonal_class(query.side, tests, spaces, cache)))
    if isinstance(query, HomQuery):
        source, target = _named(env, "space", query.source), _named(env, "space", query.target)
        return MapListOutcome(text, cache.hom(source, target))
    if isinstance(query, EnumerateQuery):
        counts = [0] * (query.size + 1)
        for space in enumerate_preorders(query.size):
            counts[len(space)] += 1
        return CountsOutcome(text, tuple(counts))
    raise ValueError(f"not a query node: {query!r}")


def _emit(outcome: Outcome, machine: bool, out) -> None:
    if machine:
        print(json.dumps(encode_result(outcome), sort_keys=True), file=out)
    else:
        # Line by line, so that a listing never exists as one string.
        for line in result_lines(outcome):
            out.write(f"{line}\n")


def run_file(path: str, machine: bool = False, out=None) -> int:
    """Parse, validate, and execute a program file; returns the exit status."""
    out = sys.stdout if out is None else out
    program = parse(_read_program(path))
    env = elaborate(program)
    for query in program.queries:
        _emit(execute_query(query, env), machine, out)
    return 0


def _read_program(path: str) -> str:
    """The text of a program file; a file that is not UTF-8 is bad input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValidationError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def _run_verify(max_size: int, machine: bool, out) -> int:
    refusal = size_refusal("verify-paper", max_size)
    if refusal is not None:
        raise ValidationError(refusal)
    reports = verify_paper(max_size)
    if machine:
        for r in reports:
            record = {
                "format": 1,
                "suite": r.suite,
                "instances": r.instances,
                "mismatches": r.mismatches,
                "first_mismatch": r.first_mismatch,
            }
            print(json.dumps(record, sort_keys=True), file=out)
    else:
        width = max(len(r.suite) for r in reports)
        print(f"{'suite':<{width}}  instances  mismatches", file=out)
        for r in reports:
            print(f"{r.suite:<{width}}  {r.instances:>9}  {r.mismatches:>10}", file=out)
        failed = sum(1 for r in reports if r.mismatches)
        print("all suites pass" if failed == 0 else f"{failed} suite(s) failed", file=out)
    for r in reports:
        if r.mismatches:
            print(f"{r.suite}: first mismatch {r.first_mismatch}", file=sys.stderr)
    return 0 if all(r.mismatches == 0 for r in reports) else 2


# The query each single-query command builds from its arguments.
_COMMAND_QUERIES = {
    "lift": lambda args: LiftQuery(args.left, args.right),
    "check": lambda args: CheckQuery(args.prop, args.name),
    "orthogonal": lambda args: OrthogonalQuery(args.side, tuple(args.tests), args.max_size),
    "hom": lambda args: HomQuery(args.source, args.target),
    "enumerate": lambda args: EnumerateQuery(args.size),
}


def _dispatch(args: argparse.Namespace) -> int:
    out = sys.stdout
    if args.command == "run":
        return run_file(args.path, args.machine, out)
    if args.command == "verify-paper":
        return _run_verify(args.max_size, args.machine, out)
    path = getattr(args, "input", None)
    env = elaborate(parse("" if path is None else _read_program(path)))
    _emit(execute_query(_COMMAND_QUERIES[args.command](args), env), args.machine, out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: no input was at fault,
        # so nothing goes to stderr.  Pointing the descriptor at devnull
        # keeps the flush at shutdown from failing a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ParseError, ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # anything else is a broken invariant
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
