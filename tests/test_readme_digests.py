"""Every README command prints the bytes whose SHA-256 is committed.

`tests/readme_digests.txt` holds one `sha256  command` line per README
command, as written and with `--format csv`.  The digests are recomputed
here in process through `cli.run`.  After a planned output change,
`python3 scripts/readme_digests.py --write` rewrites the file.  The
README's Python quick tour is run too, and every line whose trailing
comment states an exact value is checked against it.
"""

import ast
import importlib.util
import io
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from piercelab.cli import run

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "readme_digests.txt"

_spec = importlib.util.spec_from_file_location(
    "readme_digests", ROOT / "scripts" / "readme_digests.py")
readme_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(readme_digests)

COMMANDS = readme_digests.digest_commands(ROOT / "README.md")


def committed() -> dict[str, str]:
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    return {line.split("  ", 1)[1]: line for line in lines}


def test_fixture_lists_every_readme_command():
    assert list(committed()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_digest(command, monkeypatch):
    # each command runs at its own --bits precision; the variable is not read
    monkeypatch.setenv("PIERCE_LAB_PRECISION_BITS", "8")
    out, err = io.StringIO(), io.StringIO()
    assert run(shlex.split(command)[1:], out, err) == 0, err.getvalue()
    assert readme_digests.digest_line(out.getvalue().encode(), command) == committed()[command]


def quick_tour(readme: Path) -> str:
    """The README's first `python` code block."""
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("```python") + 1
    return "\n".join(lines[start:lines.index("```", start)])


_UNSTATED = object()


def stated_value(tail: str):
    """The exact value a trailing comment states, such as `# Fraction(1, 6)`, else _UNSTATED."""
    if not tail.startswith("#"):
        return _UNSTATED
    try:
        return eval(tail[1:].strip(), {"__builtins__": {}, "Fraction": Fraction})
    except (SyntaxError, NameError):  # prose, such as `# encloses ~0.49999`
        return _UNSTATED


def test_quick_tour_runs_and_states_exact_values():
    source = quick_tour(ROOT / "README.md")
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        expected = stated_value(lines[node.end_lineno - 1][node.end_col_offset:].strip())
        if isinstance(node, ast.Expr) and expected is not _UNSTATED:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            checked.append(ast.get_source_segment(source, node))
            assert value == expected, checked[-1]
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked, "the quick tour states no exact value"
