"""Command-line behaviour: exit codes, output shapes, machine records."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from liftprop import ValidationError, elaborate, parse
from liftprop.cli import execute_query, main
from liftprop.notation import (
    CheckQuery,
    EnumerateQuery,
    EpiQuery,
    HomQuery,
    LiftQuery,
    MonoQuery,
    OrthogonalQuery,
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


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "liftprop", "lift", "EMPTY_TO_PT", "CODIAG"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "HOLDS" in result.stdout


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
