"""Run every acceptance check once and record them in CHECK_<N>.json.

    python3 scripts/check.py N [--parent REV] [--python PY ...]

From this checkout, one after another:

- `tier-1`: `python -m pytest -q --continue-on-collection-errors`, with
  PYTHONPATH set to `src/`; counts the passed, failed and errored tests.
- `mutants`: `scripts/mutants.py`; counts the mutants and the survivors.
- `interpreters`: `scripts/interpreters.py PY ...` (this interpreter when
  no `--python` is given); counts the interpreters, those that did not run
  and the differences.  Under each interpreter it compares the lines of
  `scripts/readme_digests.py` with `tests/readme_digests.txt`, the one
  README-digest run of this script (tier-1's
  `tests/test_readme_digests.py` makes the same comparison in process).
- `src-lines`: the lines of `src/piercelab/*.py`, as `cat | wc -l` counts.
- `self-checks`: `perfbench/run.py --workload all --trace 1`; reads the
  `self_checks` of each workload's run record and counts those that pass
  and those that fail, naming the failing ones.  A failing self-check
  fails the check: none is skipped or marked expected.

`CHECK_<N>.json` holds, per check, its command, its exit code, its counts
and whether it passed, with the sha of this checkout's HEAD (and whether
its tracked files differ from it) and of REV, the parent of the change
(default: HEAD when the tracked files differ from it, else HEAD^).  The
script exits 1 if any check fails.  `check_file_problems` is the check of
such a file's keys that the tier-1 suite runs on every committed
`CHECK_*.json`.  Stdlib only; slow (the mutants take most of it).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PY = sys.executable

FILE_KEYS = ("head", "parent", "python", "checks", "failed")
CHECK_KEYS = ("command", "exit_code", "counts", "ok")
CHECKS = ("tier-1", "mutants", "interpreters", "src-lines", "self-checks")


def git(*argv) -> str | None:
    proc = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [PY, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {"passed": 0, "failed": 0, "errors": 0,
              **{word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", last)}}
    counts["errors"] += counts.pop("error", 0)
    return {"command": "PYTHONPATH=src python3 " + " ".join(argv[1:]), "exit_code": proc.returncode,
            "counts": counts, "ok": proc.returncode == 0 and not counts["failed"]}


def mutants() -> dict:
    proc = subprocess.run([PY, "scripts/mutants.py"], cwd=ROOT, capture_output=True, text=True)
    found = re.search(r"(\d+) mutants, (\d+) surviving", proc.stdout)
    counts = {"mutants": int(found[1]), "surviving": int(found[2])} if found else {}
    counts["killed"] = proc.stdout.count(" killed\n")
    return {"command": "python3 scripts/mutants.py", "exit_code": proc.returncode,
            "counts": counts, "ok": proc.returncode == 0 and found is not None}


def interpreters(pythons: list) -> dict:
    argv = [PY, "scripts/interpreters.py", *pythons]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    found = re.search(r"(\d+) interpreters, (\d+) did not run, (\d+) differences", proc.stdout)
    counts = dict(zip(("interpreters", "did_not_run", "differences"),
                      map(int, found.groups()))) if found else {}
    return {"command": " ".join(["python3", *argv[1:]]), "exit_code": proc.returncode,
            "counts": counts, "ok": proc.returncode == 0 and found is not None}


def src_lines() -> dict:
    lines = sum(len(path.read_bytes().splitlines())
                for path in sorted((ROOT / "src" / "piercelab").glob("*.py")))
    return {"command": "cat src/piercelab/*.py | wc -l", "exit_code": 0,
            "counts": {"lines": lines}, "ok": True}


def self_checks() -> dict:
    argv = [PY, "perfbench/run.py", "--workload", "all", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        record = ROOT / ".perfbench" / f"{workload}-seed1-trace1.json"
        if record.exists():
            for name, ok in json.loads(record.read_text(encoding="utf-8"))["self_checks"].items():
                results[f"{workload}: {name}"] = ok
    failing = sorted(name for name, ok in results.items() if not ok)
    counts = {"passed": len(results) - len(failing), "failed": len(failing), "failing": failing}
    return {"command": " ".join(["python3", *argv[1:]]), "exit_code": proc.returncode,
            "counts": counts, "ok": proc.returncode == 0 and bool(results) and not failing}


def check_file_problems(data: dict) -> list:
    """What a CHECK_*.json file lacks, as messages: its keys, each check and each check's keys."""
    problems = [f"file: no {key!r}" for key in FILE_KEYS if key not in data]
    problems += [f"{side}: no 'sha'" for side in ("head", "parent")
                 if "sha" not in data.get(side, {})]
    for name in CHECKS:
        entry = data.get("checks", {}).get(name)
        if entry is None:
            problems.append(f"no check {name!r}")
            continue
        problems += [f"{name}: no {key!r}" for key in CHECK_KEYS if key not in entry]
    return problems


def checks_of(args) -> dict:
    """Name -> the function that runs that check and returns its entry, in CHECKS order."""
    return dict(zip(CHECKS, (tier1, mutants, lambda: interpreters(args.python or [PY]),
                             src_lines, self_checks)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="N of the CHECK_<N>.json to write")
    parser.add_argument("--parent", help="the parent revision (default: see above)")
    parser.add_argument("--python", action="append", default=[],
                        help="an interpreter for scripts/interpreters.py, repeatable")
    args = parser.parse_args(argv)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    parent = args.parent or ("HEAD" if dirty else "HEAD^")
    results = {}
    for name, check in checks_of(args).items():
        results[name] = entry = check()
        print(f"{name:15s} {'ok' if entry['ok'] else 'FAILED':6s} exit {entry['exit_code']}"
              f"  {json.dumps(entry['counts'])}", file=sys.stderr, flush=True)
    data = {
        "head": {"sha": git("rev-parse", "HEAD") or "unknown", "dirty": dirty},
        "parent": {"sha": git("rev-parse", parent) or "unknown", "rev": parent},
        "python": sys.version.split()[0],
        "checks": results,
        "failed": [name for name, entry in results.items() if not entry["ok"]],
    }
    path = ROOT / f"CHECK_{args.number}.json"
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"{path.name}: {len(results)} checks, {len(data['failed'])} failed: "
          f"{', '.join(data['failed']) or 'none'}")
    return 1 if data["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
