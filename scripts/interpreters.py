"""Check that every given interpreter prints the same reports.

    python3 scripts/interpreters.py PY [PY ...]

Under each interpreter PY (a path, or a name on PATH) it runs
`scripts/readme_digests.py` and compares the lines printed with
`tests/readme_digests.txt`.  Then it runs `perfbench/run.py --workload W
--seed 5 --seconds 2` for each workload W of BENCHMARK.json and reads the
`digest` of the run record that run writes to `.perfbench/`.  A session's
digest depends on its seed and session index alone, so every interpreter
must give the same digest.  An interpreter that cannot start, or that
exits non-zero on `-c pass`, is reported as not run and takes no check.
Prints one line per check and exits 1 on any difference from the fixture
or between interpreters, or on a run that fails; else 3 if an interpreter
did not run.  Runs one process at a time.  Stdlib only.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "readme_digests.txt"
SEED = 5
SECONDS = 2
DID_NOT_RUN = 3  # the exit code when no check differs but an interpreter did not run


def starts(python: str) -> bool:
    """Whether `python -c pass` runs and exits 0."""
    try:
        return subprocess.run([python, "-c", "pass"], capture_output=True).returncode == 0
    except OSError:
        return False


def readme_lines(python: str) -> list[str] | None:
    """The `sha256  command` lines of scripts/readme_digests.py, None if it fails."""
    proc = subprocess.run([python, str(ROOT / "scripts" / "readme_digests.py")],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.splitlines() if proc.returncode == 0 else None


def workload_digest(python: str, workload: str) -> str | None:
    """The digest of one seeded benchmark run, None if the run fails."""
    cmd = [python, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS)]
    if subprocess.run(cmd, cwd=ROOT, capture_output=True).returncode != 0:
        return None
    record = ROOT / ".perfbench" / f"{workload}-seed{SEED}-trace0.json"
    return json.loads(record.read_text(encoding="utf-8"))["digest"]


def main(pythons: list[str]) -> int:
    if not pythons:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    faults = not_run = 0
    digests: dict[str, set] = {w: set() for w in workloads}
    for python in pythons:
        if not starts(python):
            not_run += 1
            print(f"{python}: did not run", flush=True)
            continue
        lines = readme_lines(python)
        same = lines == expected
        faults += not same
        print(f"{python}: README digests {'match' if same else 'DIFFER from'} "
              f"{FIXTURE.relative_to(ROOT)}", flush=True)
        for workload in workloads:
            digest = workload_digest(python, workload)
            faults += digest is None
            digests[workload].add(digest)
            print(f"{python}: {workload} digest {digest or 'RUN FAILED'}", flush=True)
    for workload, seen in digests.items():
        if len(seen) > 1:
            faults += 1
            print(f"{workload}: digests differ between interpreters")
    print(f"{len(pythons)} interpreters, {not_run} did not run, {faults} differences")
    return 1 if faults else DID_NOT_RUN if not_run else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
