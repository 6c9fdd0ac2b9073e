"""Every README command prints the bytes whose SHA-256 is committed.

`tests/readme_digests.txt` holds one `sha256  command` line per README
command, as written and with `--format csv`.  The digests are recomputed
here in process through `cli.run`.  After a planned output change,
`python3 scripts/readme_digests.py --write` rewrites the file.
"""

import importlib.util
import io
import shlex
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
    monkeypatch.delenv("PIERCE_LAB_PRECISION_BITS", raising=False)
    out, err = io.StringIO(), io.StringIO()
    assert run(shlex.split(command)[1:], out, err) == 0, err.getvalue()
    assert readme_digests.digest_line(out.getvalue().encode(), command) == committed()[command]
