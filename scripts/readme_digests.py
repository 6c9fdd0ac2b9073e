"""Print the SHA-256 of the stdout of every README command-line example.

Reads the `pierce-lab` lines of the README's "Command line" block, runs
each as `python -m piercelab ...` against this checkout's `src/`, once as
written and once with `--format csv`, and prints one `sha256  command`
line per run.  Exits 1 if any run exits non-zero.  The committed lines
live in `tests/readme_digests.txt`, which a tier-1 test recomputes in
process; after a planned output change, `--write` rewrites that file:

    python3 scripts/readme_digests.py           # print the digests
    python3 scripts/readme_digests.py --write   # and rewrite the fixture
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "readme_digests.txt"


def readme_commands(readme: Path) -> list[str]:
    """The `pierce-lab` lines of the first code block after "## Command line"."""
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("## Command line")
    fence = next(i for i in range(start, len(lines)) if lines[i].startswith("```"))
    commands = []
    for line in lines[fence + 1:]:
        if line.startswith("```"):
            break
        if line.startswith("pierce-lab "):
            commands.append(line)
    return commands


def digest_commands(readme: Path) -> list[str]:
    """Each README command as written, then with `--format csv`."""
    return [command
            for readme_command in readme_commands(readme)
            for command in (readme_command,
                            readme_command.replace("pierce-lab", "pierce-lab --format csv", 1))]


def digest_line(stdout: bytes, command: str) -> str:
    return f"{hashlib.sha256(stdout).hexdigest()}  {command}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="also rewrite tests/readme_digests.txt")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env.pop("PIERCE_LAB_PRECISION_BITS", None)  # run at each command's own precision
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = 0
    lines = []
    for command in digest_commands(ROOT / "README.md"):
        argv_run = [sys.executable, "-m", "piercelab", *shlex.split(command)[1:]]
        proc = subprocess.run(argv_run, capture_output=True, env=env, cwd=ROOT)
        lines.append(digest_line(proc.stdout, command))
        print(lines[-1], flush=True)
        if proc.returncode != 0:
            failed += 1
            print(f"exit {proc.returncode}: {command}", file=sys.stderr)
    if failed:
        return 1
    if args.write:
        FIXTURE.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"wrote {FIXTURE.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
