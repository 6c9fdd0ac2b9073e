"""Print the SHA-256 of the stdout of every README command-line example.

Reads the `pierce-lab` lines of the README's "Command line" block, runs
each as `python -m piercelab ...` against this checkout's `src/`, once as
written and once with `--format csv`, and prints one `sha256  command`
line per run.  Exits 1 if any run exits non-zero.  Comparing the output
of two checkouts shows whether a change kept the README commands
byte-identical:

    python3 scripts/readme_digests.py > digests.txt
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def main() -> int:
    env = dict(os.environ)
    env.pop("PIERCE_LAB_PRECISION_BITS", None)  # run at each command's own precision
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = 0
    for readme_command in readme_commands(ROOT / "README.md"):
        csv_command = readme_command.replace("pierce-lab", "pierce-lab --format csv", 1)
        for command in (readme_command, csv_command):
            argv = [sys.executable, "-m", "piercelab", *shlex.split(command)[1:]]
            proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT)
            print(f"{hashlib.sha256(proc.stdout).hexdigest()}  {command}", flush=True)
            if proc.returncode != 0:
                failed += 1
                print(f"exit {proc.returncode}: {command}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
