"""Command-line interface.

Exit codes: 0 when all queries executed (a failing lifting property is a
successful query), 1 on parse, validation, or usage errors, 2 on internal
invariant violations.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .lifting import (
    HomCache,
    PROPERTY_IDS,
    SPACE_PROPERTIES,
    Universe,
    characterize,
    epi_lift_result,
    lifting_check,
    mono_lift_result,
    orthogonal_class,
)
from .notation import (
    BUILTIN_MAPS,
    BUILTIN_SPACES,
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
    ValidationError,
    elaborate,
    encode_result,
    parse,
    print_query,
    print_result,
)
from .preorder import DEFAULT_SIZE_CAP, enumerate_preorders
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

    def add_flags(p, with_input=False, with_max_size=False):
        p.add_argument("--machine", action="store_true", help="emit one JSON record per result")
        if with_input:
            p.add_argument("--input", metavar="PATH", default=None,
                           help="load space/map declarations from a program file")
        if with_max_size:
            p.add_argument("--max-size", dest="max_size", type=int, default=3, metavar="N",
                           help="space size bound (default 3)")

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
    add_flags(p, with_input=True, with_max_size=True)

    p = sub.add_parser("enumerate", help="count labeled preorders per carrier size")
    p.add_argument("size", type=int, help="largest carrier size")
    add_flags(p)

    p = sub.add_parser("hom", help="list all monotone maps between two spaces")
    p.add_argument("source", help="source space name")
    p.add_argument("target", help="target space name")
    add_flags(p, with_input=True)

    p = sub.add_parser("verify-paper", help="run the oracle-agreement suites")
    add_flags(p, with_max_size=True)
    return parser


def _check_sizes(args: argparse.Namespace) -> None:
    """Refuse size arguments outside what the commands support."""
    max_size = getattr(args, "max_size", 3)
    if not 0 <= max_size <= DEFAULT_SIZE_CAP:
        raise ValidationError(
            f"--max-size must be between 0 and {DEFAULT_SIZE_CAP}, got {max_size}"
        )
    if args.command == "verify-paper" and not 1 <= max_size <= 4:
        raise ValidationError("verify-paper supports --max-size between 1 and 4")
    if args.command == "enumerate" and not 0 <= args.size <= DEFAULT_SIZE_CAP:
        raise ValidationError(
            f"size must be between 0 and {DEFAULT_SIZE_CAP}, got {args.size}"
        )


def execute_query(query: Query, env: Env) -> Outcome:
    """Evaluate one query against named spaces and maps.

    Every query gets a fresh hom-set cache, so concurrent queries never
    share state.
    """
    cache = HomCache()
    text = print_query(query)
    if isinstance(query, LiftQuery):
        return LiftOutcome(text, lifting_check(env.maps[query.left], env.maps[query.right], cache))
    if isinstance(query, CheckQuery):
        arg = env.spaces[query.arg] if query.prop in SPACE_PROPERTIES else env.maps[query.arg]
        return LiftOutcome(text, characterize(query.prop, arg, cache))
    if isinstance(query, MonoQuery):
        universe = Universe.build(query.size, cache)
        return LiftOutcome(text, mono_lift_result(env.maps[query.name], universe, cache))
    if isinstance(query, EpiQuery):
        universe = Universe.build(query.size, cache)
        return LiftOutcome(text, epi_lift_result(env.maps[query.name], universe, cache))
    if isinstance(query, OrthogonalQuery):
        universe = Universe.build(query.size, cache)
        tests = [env.maps[t] for t in query.tests]
        return MapListOutcome(text, tuple(orthogonal_class(query.side, tests, universe, cache)))
    if isinstance(query, HomQuery):
        return MapListOutcome(text, cache.hom(env.spaces[query.source], env.spaces[query.target]))
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
        print(print_result(outcome), file=out)


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


def _load_env(input_path: str | None) -> Env:
    if input_path is None:
        return Env(dict(BUILTIN_SPACES), dict(BUILTIN_MAPS))
    return elaborate(parse(_read_program(input_path)))


def _require_space(env: Env, name: str) -> None:
    if name not in env.spaces:
        raise ValidationError(f"unknown space {name!r}")


def _require_map(env: Env, name: str) -> None:
    if name not in env.maps:
        raise ValidationError(f"unknown map {name!r}")


def _run_verify(max_size: int, machine: bool, out) -> int:
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


def _dispatch(args: argparse.Namespace) -> int:
    _check_sizes(args)
    out = sys.stdout
    if args.command == "run":
        return run_file(args.path, args.machine, out)
    if args.command == "verify-paper":
        return _run_verify(args.max_size, args.machine, out)
    env = _load_env(getattr(args, "input", None))
    if args.command == "lift":
        _require_map(env, args.left)
        _require_map(env, args.right)
        outcome = execute_query(LiftQuery(args.left, args.right), env)
    elif args.command == "check":
        if args.prop not in PROPERTY_IDS:
            raise ValidationError(
                f"unknown property {args.prop!r}; expected one of {', '.join(PROPERTY_IDS)}"
            )
        if args.prop in SPACE_PROPERTIES:
            _require_space(env, args.name)
        else:
            _require_map(env, args.name)
        outcome = execute_query(CheckQuery(args.prop, args.name), env)
    elif args.command == "orthogonal":
        for test in args.tests:
            _require_map(env, test)
        outcome = execute_query(OrthogonalQuery(args.side, tuple(args.tests), args.max_size), env)
    elif args.command == "hom":
        _require_space(env, args.source)
        _require_space(env, args.target)
        outcome = execute_query(HomQuery(args.source, args.target), env)
    else:
        outcome = execute_query(EnumerateQuery(args.size), env)
    _emit(outcome, args.machine, out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # anything else is a broken invariant
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
