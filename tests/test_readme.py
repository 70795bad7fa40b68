"""The README's examples run as written: the Python quick tour gives the
results its comments state, and every line of the Command line block exits
0. ``verify-all`` is left to ``test_acceptance.py``, which runs the same
battery."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from curvevar.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the section ``heading``."""
    return re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```", README, re.S | re.M).group(1)


def _cli_lines() -> list:
    """The argv of each ``curvevar ...`` line of the Command line block,
    continuation lines joined, ``verify-all`` left out."""
    text = _block("Command line", "sh").replace("\\\n", " ")
    argvs = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("curvevar ")]
    return [argv for argv in argvs if argv[0] != "verify-all"]


def test_quick_tour_gives_its_stated_verdict():
    """Runs the tour statement by statement; an expression followed by a
    comment line holding a literal must evaluate to that literal."""
    code = _block("Quick tour", "python")
    lines = code.splitlines()
    ns, stated = {}, []
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        after = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
        if after.startswith("# "):
            stated.append((value, ast.literal_eval(after[2:])))
    assert stated == [("unstable in first eigenspace", "unstable in first eigenspace")]


def test_readme_lists_the_command_lines():
    assert len(_cli_lines()) == 9


@pytest.mark.parametrize("argv", _cli_lines(), ids=lambda argv: argv[0])
def test_command_line_example_exits_0(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 0, err
