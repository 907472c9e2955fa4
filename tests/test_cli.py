"""Command-line behaviour: exit codes, output shapes, machine records."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liftprop import ValidationError, elaborate, parse
from liftprop.cli import _emit, execute_query, main
from liftprop.lifting import PROPERTY_IDS, SPACE_PROPERTIES
from liftprop.notation import (
    BUILTIN_MAPS,
    BUILTIN_SPACES,
    KEYWORDS,
    CheckQuery,
    EnumerateQuery,
    EpiQuery,
    HomQuery,
    LiftQuery,
    MonoQuery,
    OrthogonalQuery,
    print_result,
)


def run_cli(*argv):
    # argparse reports usage errors through SystemExit; fold them in.
    try:
        return main(list(argv))
    except SystemExit as stop:
        return stop.code


def test_lift_holds(capsys):
    assert run_cli("lift", "EMPTY_TO_PT", "CODIAG") == 0
    out = capsys.readouterr().out
    assert out == "lift EMPTY_TO_PT |> CODIAG\n  HOLDS\n"


def test_failing_lift_still_exits_zero(capsys):
    assert run_cli("lift", "CODIAG", "CODIAG") == 0
    out = capsys.readouterr().out
    assert "FAILS" in out
    assert "top:    { p |-> p, q |-> q }" in out


def test_lift_machine_record(capsys):
    assert run_cli("lift", "EMPTY_TO_PT", "EMPTY_TO_PT", "--machine") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record == {
        "format": 1,
        "query": "lift EMPTY_TO_PT |> EMPTY_TO_PT",
        "holds": False,
        "counterexample": {"top": [], "bottom": [["pt", "pt"]]},
    }


def test_machine_output_is_byte_stable(capsys):
    run_cli("lift", "CODIAG", "CODIAG", "--machine")
    first = capsys.readouterr().out
    run_cli("lift", "CODIAG", "CODIAG", "--machine")
    assert capsys.readouterr().out == first


def test_check_map_and_space_properties(capsys):
    assert run_cli("check", "surjective", "CODIAG") == 0
    assert capsys.readouterr().out == "check surjective CODIAG\n  HOLDS\n"
    assert run_cli("check", "T1", "VEE") == 0
    assert "FAILS" in capsys.readouterr().out
    assert run_cli("check", "hausdorff", "TWO") == 0
    assert "HOLDS" in capsys.readouterr().out


def test_check_rejects_wrong_argument_kind(capsys):
    assert run_cli("check", "T0", "CODIAG") == 1
    assert "unknown space" in capsys.readouterr().err
    assert run_cli("check", "dense", "SIERP") == 1
    assert "unknown map" in capsys.readouterr().err
    assert run_cli("check", "compact", "SIERP") == 1
    assert "unknown property" in capsys.readouterr().err


def test_enumerate(capsys):
    assert run_cli("enumerate", "3") == 0
    assert capsys.readouterr().out.splitlines() == [
        "enumerate 3",
        "  size 0: 1",
        "  size 1: 1",
        "  size 2: 4",
        "  size 3: 29",
        "  total 35",
    ]
    assert run_cli("enumerate", "2", "--machine") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["counts"] == [1, 1, 4]


def test_enumerate_rejects_sizes_beyond_cap(capsys):
    assert run_cli("enumerate", "6") == 1
    assert "size 6 exceeds the hard cap 5" in capsys.readouterr().err


def test_hom_listing(capsys):
    assert run_cli("hom", "SIERP", "SIERP") == 0
    out = capsys.readouterr().out
    assert "count 3" in out
    assert run_cli("hom", "SIERP", "MISSING") == 1
    assert "unknown space" in capsys.readouterr().err


def test_orthogonal_class_sizes(capsys):
    assert run_cli("orthogonal", "right", "EMPTY_TO_PT", "--max-size", "2") == 0
    assert "count 24" in capsys.readouterr().out
    assert run_cli("orthogonal", "left", "--max-size", "1") == 0
    out = capsys.readouterr().out
    assert out.startswith("orthogonal left [] size 1\n")


def test_orthogonal_rejects_bad_side(capsys):
    assert run_cli("orthogonal", "up", "CODIAG") == 1
    assert "invalid choice" in capsys.readouterr().err


def test_max_size_bounds(capsys):
    assert run_cli("orthogonal", "left", "--max-size", "9") == 1
    assert "size 9 exceeds the orthogonal cap 4" in capsys.readouterr().err


def refuse_enumeration(monkeypatch):
    def enumeration(*args, **kwargs):
        raise AssertionError("a refused query must not enumerate")

    monkeypatch.setattr("liftprop.cli.enumerate_preorders", enumeration)


def test_orthogonal_size_5_is_refused_before_any_enumeration(monkeypatch, tmp_path, capsys):
    refuse_enumeration(monkeypatch)
    assert run_cli("orthogonal", "left", "--max-size", "5") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: size 5 exceeds the orthogonal cap 4: ")
    assert "10,906,368,176" in err
    path = program(tmp_path, "space S = { a }\northogonal right [EMPTY_TO_PT] size 5\n")
    assert run_cli("run", path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 2:37: size 5 exceeds the orthogonal cap 4: ")


def test_size_longer_than_int_converts_exits_1(tmp_path, capsys):
    path = program(tmp_path, "enumerate " + "9" * 5000 + "\n")
    assert run_cli("run", path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1:11: size 999")
    assert err.rstrip().endswith("exceeds the hard cap 5")


@pytest.mark.parametrize(
    "query, message",
    [
        (LiftQuery("NOPE", "CODIAG"), "unknown map 'NOPE'"),
        (LiftQuery("CODIAG", "NOPE"), "unknown map 'NOPE'"),
        (HomQuery("NOPE", "PT"), "unknown space 'NOPE'"),
        (HomQuery("PT", "NOPE"), "unknown space 'NOPE'"),
        (CheckQuery("T0", "CODIAG"), "unknown space 'CODIAG'"),
        (CheckQuery("dense", "SIERP"), "unknown map 'SIERP'"),
        (CheckQuery("compact", "SIERP"), "unknown property 'compact'; expected one of "),
        (OrthogonalQuery("left", ("CODIAG", "NOPE"), 2), "unknown map 'NOPE'"),
        (MonoQuery("NOPE", 2), "unknown map 'NOPE'"),
        (EpiQuery("NOPE", 2), "unknown map 'NOPE'"),
        (OrthogonalQuery("right", ("SIERP_TO_PT",), 5), "size 5 exceeds the orthogonal cap 4: "),
        (OrthogonalQuery("left", (), -1), "size -1 is below the orthogonal minimum 0"),
        (MonoQuery("CODIAG", 6), "size 6 exceeds the hard cap 5"),
        (EpiQuery("CODIAG", 6), "size 6 exceeds the hard cap 5"),
        (EnumerateQuery(6), "size 6 exceeds the hard cap 5"),
        (EnumerateQuery(-1), "size -1 is below the enumerate minimum 0"),
    ],
    ids=repr,
)
def test_execute_query_refuses_unknown_names(monkeypatch, query, message):
    refuse_enumeration(monkeypatch)
    with pytest.raises(ValidationError) as info:
        execute_query(query, elaborate(parse("")))
    assert info.value.message.startswith(message)


def program(tmp_path, text):
    path = tmp_path / "program.lift"
    path.write_text(text, encoding="utf-8")
    return str(path)


DEMO = """\
space C = { a < b }
map inc : PT -> C = { pt |-> b }
lift EMPTY_TO_PT |> inc
check T0 C
hom C PT
enumerate 2
"""


class RecordingWriter:
    """Stands in for stdout and keeps each write call's text."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def emitted_outcomes():
    corpus = sorted(Path(__file__).parent.glob("corpus/*.lift"))
    for path in corpus:
        program = parse(path.read_text(encoding="utf-8"))
        env = elaborate(program)
        for query in program.queries:
            yield execute_query(query, env)
    env = elaborate(parse(""))
    for query in (HomQuery("PT", "EMPTY"), EnumerateQuery(2), LiftQuery("CODIAG", "CODIAG")):
        yield execute_query(query, env)


def test_plain_emit_writes_print_result_and_a_newline():
    outcomes = list(emitted_outcomes())
    assert any(getattr(o, "maps", None) == () for o in outcomes)
    assert any(hasattr(o, "counts") for o in outcomes)
    assert any(getattr(getattr(o, "result", None), "counterexample", None) for o in outcomes)
    for outcome in outcomes:
        out = io.StringIO()
        _emit(outcome, False, out)
        assert out.getvalue() == print_result(outcome) + "\n"


def test_plain_listing_is_written_in_pieces():
    outcome = execute_query(HomQuery("SIERP", "SIERP"), elaborate(parse("")))
    out = RecordingWriter()
    _emit(outcome, False, out)
    assert len(outcome.maps) == 3
    # One string for the whole block, even split off its newline, fails here.
    assert all(text.count("\n") <= 1 for text in out.writes)
    assert "".join(out.writes) == print_result(outcome) + "\n"


def test_run_executes_queries_in_order(tmp_path, capsys):
    assert run_cli("run", program(tmp_path, DEMO)) == 0
    out = capsys.readouterr().out
    blocks = [line for line in out.splitlines() if not line.startswith(" ")]
    assert blocks == [
        "lift EMPTY_TO_PT |> inc",
        "check T0 C",
        "hom C PT",
        "enumerate 2",
    ]
    assert "FAILS" in out  # a failing query is still a successful run


def test_run_machine_emits_one_record_per_query(tmp_path, capsys):
    assert run_cli("run", program(tmp_path, DEMO), "--machine") == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["query"] for r in records] == [
        "lift EMPTY_TO_PT |> inc",
        "check T0 C",
        "hom C PT",
        "enumerate 2",
    ]
    assert all(r["format"] == 1 for r in records)


def test_run_hom_from_1200_point_space(tmp_path, capsys):
    labels = ", ".join(f"a{k}" for k in range(1200))
    path = program(tmp_path, f"space X = {{ {labels} }}\nhom X PT\n")
    assert run_cli("run", path) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["hom X PT", "  count 1"]
    assert captured.err == ""


def test_run_hom_from_600_point_chain(tmp_path, capsys):
    # A dense relation: 179,700 strict pairs to close, check and print.
    chain = ", ".join(f"a{k} < a{k + 1}" for k in range(599))
    path = program(tmp_path, f"space C = {{ {chain} }}\nhom C PT\n")
    assert run_cli("run", path) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["hom C PT", "  count 1"]
    assert captured.err == ""


def test_run_empty_program(tmp_path, capsys):
    assert run_cli("run", program(tmp_path, "# nothing here\n")) == 0
    assert capsys.readouterr().out == ""


def test_run_reports_parse_errors(tmp_path, capsys):
    assert run_cli("run", program(tmp_path, "space S = { a ? }")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1:15:")


def test_run_missing_file(tmp_path, capsys):
    assert run_cli("run", str(tmp_path / "absent.lift")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("run",), ("hom", "PT", "PT", "--input")])
def test_program_file_that_is_not_utf8_is_bad_input(tmp_path, capsys, argv):
    path = tmp_path / "latin1.lift"
    path.write_bytes(b"lift CODIAG |> CODIAG\n# caf\xff\n")
    assert run_cli(*argv, str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text (invalid start byte at byte 27)\n"


def test_input_declarations_extend_the_builtins(tmp_path, capsys):
    path = program(
        tmp_path,
        "space C = { a < b }\n"
        "map top : PT -> C = { pt |-> b }\n"
        "lift CODIAG |> CODIAG\n",  # queries in the input file are ignored
    )
    assert run_cli("lift", "top", "top", "--input", path) == 0
    out = capsys.readouterr().out
    assert out.count("lift ") == 1
    assert out.startswith("lift top |> top\n")
    assert run_cli("check", "dense", "top", "--input", path) == 0
    assert "HOLDS" in capsys.readouterr().out


def test_verify_paper_small(capsys):
    assert run_cli("verify-paper", "--max-size", "2") == 0
    out = capsys.readouterr().out
    assert "all suites pass" in out
    assert "surjective" in out and "self-lifting" in out


def test_verify_paper_machine(capsys):
    assert run_cli("verify-paper", "--max-size", "2", "--machine") == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 12
    assert all(r["mismatches"] == 0 for r in records)
    assert all(r["first_mismatch"] is None for r in records)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("machine", [False, True], ids=["plain", "machine"])
def test_verify_paper_max_size_4_matches_golden_bytes(capsys, machine):
    """The full paper run prints exactly the pinned table or records.

    Engine changes keep this output byte for byte.  Regenerate the files
    only for a change meant to alter it, with
    ``liftprop verify-paper --max-size 4 [--machine] > tests/golden/...``.
    """
    assert run_cli("verify-paper", "--max-size", "4", *(["--machine"] if machine else [])) == 0
    expected = GOLDEN / f"verify_paper_4.{'jsonl' if machine else 'out'}"
    assert capsys.readouterr().out.encode("utf-8") == expected.read_bytes()


def test_verify_paper_size_bounds(capsys):
    assert run_cli("verify-paper", "--max-size", "0") == 1
    assert "size 0 is below the verify-paper minimum 1" in capsys.readouterr().err
    assert run_cli("verify-paper", "--max-size", "6") == 1
    assert capsys.readouterr().err == "error: size 6 exceeds the hard cap 5\n"


def test_usage_error_exits_one(capsys):
    assert run_cli() == 1
    assert run_cli("lift", "CODIAG") == 1


def test_internal_errors_exit_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("wedged")

    monkeypatch.setattr("liftprop.cli.lifting_check", boom)
    assert run_cli("lift", "CODIAG", "CODIAG") == 2
    assert "internal error" in capsys.readouterr().err


def run_both_ways(text):
    """(status, stdout, stderr) of `run` on the program, plain and with --machine."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.lift"
        path.write_text(text, encoding="utf-8")
        runs = []
        for machine in ([], ["--machine"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(["run", str(path), *machine])
            runs.append((status, out.getvalue(), err.getvalue()))
    return runs


# Sizes 4 and 5 are left out: `orthogonal left [] size 4` lists 6.6 M maps.
# S, f and pt can be declared, or are labels, so some declarations succeed.
FUZZ_TOKENS = sorted(KEYWORDS) + sorted(BUILTIN_SPACES) + sorted(BUILTIN_MAPS) + [
    *PROPERTY_IDS, "pi0", "-", "injective", "S", "f", "pt",
    "{", "}", "[", "]", ",", ":", "=", "<", "<>", "->", "|->", "|>", "#", "\n",
    "0", "1", "2", "3", "6", "9" * 30,
]
# Statements of random tokens, each led by a statement keyword so that
# parsing gets past the first token.
statements = st.tuples(
    st.sampled_from(sorted(KEYWORDS - {"size", "left", "right"})),
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=8),
)
token_streams = st.lists(statements, max_size=5).map(
    lambda drawn: [token for lead, rest in drawn for token in (lead, *rest)]
)


@settings(max_examples=300, deadline=None)
@given(token_streams)
def test_random_token_streams_exit_0_or_1_with_one_error_line(tokens):
    (status, _, err), machine = run_both_ways(" ".join(tokens))
    assert status in (0, 1), err
    assert machine[0] == status and machine[2] == err
    if status == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


def closure(labels, generators):
    """The pairs x <= y of the preorder the generators span, by brute force."""
    leq = {(x, x) for x in labels} | set(generators)
    while True:
        more = {(x, z) for x, y in leq for w, z in leq if y == w} - leq
        if not more:
            return leq
        leq |= more


@st.composite
def well_formed_programs(draw):
    """(text, names and positions of the maps that are not monotone, query texts)."""
    separator = st.sampled_from([" ", "  ", "\t", "\n", " # note\n", "\n\n "])
    text = ""

    def put(*tokens):
        nonlocal text
        for token in tokens:
            text += token + draw(separator)

    def put_items(items):
        for index, item in enumerate(items):
            put(*([","] if index else []), *item)

    spaces = {}
    for k in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.sampled_from("abcde"), max_size=3, unique=True))
        generators = []
        if labels:
            label = st.sampled_from(labels)
            generator = st.tuples(label, st.sampled_from(["<", "<>"]), label)
            generators = draw(st.lists(generator, max_size=3))
        put("space", f"S{k}", "=", "{")
        put_items([[label] for label in labels] + generators)
        put("}")
        pairs = [(x, y) for x, _, y in generators]
        pairs += [(y, x) for x, op, y in generators if op == "<>"]
        spaces[f"S{k}"] = (labels, closure(labels, pairs))
    maps, broken = [], []
    for k in range(draw(st.integers(0, 3))):
        source, target = (draw(st.sampled_from(sorted(spaces))) for _ in range(2))
        (source_labels, source_leq), (target_labels, target_leq) = spaces[source], spaces[target]
        if source_labels and not target_labels:
            continue
        image = {x: draw(st.sampled_from(target_labels)) for x in source_labels}
        if any((image[x], image[y]) not in target_leq for x, y in source_leq):
            broken.append((f"m{k}", text.count("\n") + 1, len(text) - text.rfind("\n")))
        put("map", f"m{k}", ":", source, "->", target, "=", "{")
        put_items([[x, "|->", image[x]] for x in source_labels])
        put("}")
        maps.append(f"m{k}")
    map_names = st.sampled_from(maps + sorted(BUILTIN_MAPS))
    space_names = st.sampled_from(sorted(spaces) + sorted(BUILTIN_SPACES))
    kinds = st.sampled_from(["lift", "check", "orthogonal", "mono", "epi", "hom", "enumerate"])
    queries = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "lift":
            tokens = ["lift", draw(map_names), "|>", draw(map_names)]
        elif kind == "check":
            prop = draw(st.sampled_from(PROPERTY_IDS))
            arg = draw(space_names if prop in SPACE_PROPERTIES else map_names)
            tokens = ["check", *prop.replace("-", " - ").split(), arg]
        elif kind == "orthogonal":
            tests = draw(st.lists(map_names, max_size=2))
            side, size = draw(st.sampled_from(["left", "right"])), draw(st.integers(0, 2))
            listed = [token for name in tests for token in (",", name)][1:]
            tokens = ["orthogonal", side, "[", *listed, "]", "size", str(size)]
        elif kind in ("mono", "epi"):
            tokens = [kind, draw(map_names), "size", str(draw(st.integers(0, 2)))]
        elif kind == "hom":
            tokens = ["hom", draw(space_names), draw(space_names)]
        else:
            tokens = ["enumerate", str(draw(st.integers(0, 4)))]
        put(*tokens)
        # The canonical text each record names its query by.
        canonical = " ".join(tokens).replace(" - ", "-").replace("[ ", "[").replace(" ]", "]")
        queries.append(canonical.replace(" , ", ", "))
    return text, broken, queries


@settings(max_examples=200, deadline=None)
@given(well_formed_programs())
def test_well_formed_programs_exit_0_or_name_the_first_map_that_is_not_monotone(program_parts):
    text, broken, queries = program_parts
    (status, out, err), (machine_status, machine_out, machine_err) = run_both_ways(text)
    assert machine_status == status and machine_err == err
    if not broken:
        assert (status, err) == (0, "")
        assert [line for line in out.splitlines() if not line.startswith(" ")] == queries
        records = [json.loads(line) for line in machine_out.splitlines()]
        assert [record["query"] for record in records] == queries
        return
    name, line, col = broken[0]
    assert (status, out, machine_out) == (1, "", "")
    assert err.startswith(f"error: {line}:{col}: map {name!r} is not monotone: "), err
    assert err.count("\n") == 1


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "liftprop", "lift", "EMPTY_TO_PT", "CODIAG"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "HOLDS" in result.stdout


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # About 400 KB of output, more than a pipe buffer holds, so the writer
    # is still writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "liftprop", "orthogonal", "right", "SIERP_TO_PT", "--max-size", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"orthogonal right [SIERP_TO_PT] size 3\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_cli_import_does_not_load_dataclasses():
    # Each CLI call is a cold process, and dataclasses brings in inspect,
    # ast and tokenize; the value classes must not need it.
    code = (
        "import sys; before = 'dataclasses' in sys.modules; import liftprop.cli; "
        "print(before, 'dataclasses' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    if result.stdout.startswith("True"):
        pytest.skip("the interpreter loads dataclasses before liftprop")
    assert result.stdout == "False False\n"


@pytest.mark.skipif(shutil.which("liftprop") is None, reason="script not on PATH")
def test_console_script():
    result = subprocess.run(
        ["liftprop", "enumerate", "2", "--machine"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["total"] == 6
