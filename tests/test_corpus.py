"""Corpus programs: every file parses, executes, and round-trips exactly.

``corpus/expected`` holds each program's output, plain (``.out``) and
``--machine`` (``.jsonl``).  When a change is meant to alter an output,
regenerate the file with ``liftprop run corpus/NAME.lift [--machine]``.
"""

import io
import json
from pathlib import Path

import pytest

from liftprop import elaborate, encode_result, parse, print_query, print_space
from liftprop.cli import execute_query, run_file
from liftprop.notation import BUILTIN_SPACES, SpaceDecl

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.lift"))
EXPECTED = Path(__file__).parent / "corpus" / "expected"


def reprint_program(program, env):
    """Render a parsed program back to canonical text."""
    lines = []
    for decl in program.declarations:
        if isinstance(decl, SpaceDecl):
            lines.append(print_space(env.spaces[decl.name], decl.name))
        else:
            f = env.maps[decl.name]
            items = ", ".join(f"{a} |-> {b}" for a, b in f.assignment_by_label())
            body = f"{{ {items} }}" if items else "{ }"
            lines.append(f"map {decl.name} : {decl.source} -> {decl.target} = {body}")
    lines.extend(print_query(query) for query in program.queries)
    return "\n".join(lines) + "\n"


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 20
    queries = sum(len(parse(p.read_text(encoding="utf-8")).queries) for p in CORPUS)
    assert queries >= 20


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_program_executes_deterministically(path):
    program = parse(path.read_text(encoding="utf-8"))
    env = elaborate(program)
    assert program.queries
    for query in program.queries:
        record = json.dumps(encode_result(execute_query(query, env)), sort_keys=True)
        again = json.dumps(encode_result(execute_query(query, env)), sort_keys=True)
        assert again == record


@pytest.mark.parametrize("machine", [False, True], ids=["plain", "machine"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_output_matches_expected_bytes(path, machine):
    out = io.StringIO()
    assert run_file(str(path), machine, out) == 0
    expected = EXPECTED / f"{path.stem}.{'jsonl' if machine else 'out'}"
    assert out.getvalue().encode("utf-8") == expected.read_bytes()


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_program_round_trips(path):
    program = parse(path.read_text(encoding="utf-8"))
    env = elaborate(program)
    text = reprint_program(program, env)
    reparsed = parse(text)
    assert reparsed.queries == program.queries
    again = elaborate(reparsed)
    assert again.spaces == env.spaces
    assert again.maps == env.maps
    assert reprint_program(reparsed, again) == text


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_declared_spaces_print_canonically(path):
    program = parse(path.read_text(encoding="utf-8"))
    env = elaborate(program)
    for name, space in env.spaces.items():
        if name in BUILTIN_SPACES:
            continue
        text = print_space(space, name)
        assert elaborate(parse(text)).spaces[name] == space
        assert print_space(elaborate(parse(text)).spaces[name], name) == text
