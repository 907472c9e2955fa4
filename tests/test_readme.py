"""README's examples: `$` lines are commands, the rest is their exact output."""

import re
from pathlib import Path

import pytest

from liftprop import Square
from liftprop.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
SECTION = README[README.index("## Command line") : README.index("### Grammar")]
BLOCKS = re.findall(r"^```\n(.*?)^```$", SECTION, re.S | re.M)
# (the block before, a `$ liftprop` command and the lines README shows after it)
EXAMPLES = [
    (before, example.rstrip("\n").split("\n"))
    for before, block in zip([""] + BLOCKS, BLOCKS)
    for example in re.split(r"^(?=\$ )", block, flags=re.M)
    if example.startswith("$ liftprop ")
]


@pytest.mark.parametrize("before, lines", EXAMPLES, ids=[lines[0] for _, lines in EXAMPLES])
def test_command_prints_what_readme_shows(before, lines, tmp_path, monkeypatch, capsys):
    """A `.lift` argument names the program block just above; `...` elides lines."""
    argv = lines[0].split()[2:]
    for name in argv:
        if name.endswith(".lift"):
            (tmp_path / name).write_text(before, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out, shown = capsys.readouterr().out, lines[1:]
    if "..." in shown:
        printed = iter(out.split("\n"))
        assert all(line in printed for line in shown if line != "...")
    else:
        assert out == "\n".join(shown) + "\n"


def test_python_quick_start_gives_the_values_its_comments_state():
    code = README.split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(code, namespace)
    for line in code.splitlines():
        expression, _, comment = line.partition("  # ")
        if comment.split(",")[0] in ("True", "False"):
            assert eval(expression, namespace) is (comment.split(",")[0] == "True"), line
    assert isinstance(namespace["result"].counterexample, Square)
