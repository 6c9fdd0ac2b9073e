"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S
    python3 scripts/bench_pairs.py PARENT CHANGE --workload readme --pairs N

Pair i runs `perfbench/run.py --workload W --seed S+i --trace 0` once in
each checkout, the parent first in even pairs and the change first in odd
ones, so a drift of the machine's speed does not favour either side.
`--workload all` runs the pairs of every workload in the parent's
BENCHMARK.json in turn and prints one table per workload.
Runs inherit the environment without PYTHONDONTWRITEBYTECODE, so each
checkout keeps its bytecode cache and `setup_s` measures an import from
cached bytecode, as perfbench/README.md describes, even from a shell that
sets that variable.
Each run writes its record to `.perfbench/` in its own checkout; the
script reads both records of each pair and prints each side's `src/` line
count and, for every end-to-end metric, the parent's and the change's
median and quartiles, the relative change of the median, the number
of pairs the change won and whether the change is resolved: its median
differs from the parent's by more than the distance between the parent's
quartiles, and at least 8 in 10 of the pairs (`AGREEING_PAIRS`, scaled to
`--pairs` and rounded up) move the same way as the medians: won for a
gain, lost for a loss, a tied pair counting for neither.  An unresolved
change is within the parent's own spread, or a shift most pairs do not
share, and says nothing either way.  A pair whose run is not `correct`,
or whose two digests differ, is flagged, and so is a metric whose median
is worse than the parent's by more than its `bound` in BENCHMARK.json;
the exit code is then 1.  Stdlib only; it only reads BENCHMARK.json and
changes nothing under `perfbench/`.

`--json PATH` also writes the tables to PATH: per workload and metric,
each side's quartiles, the relative change of the median, the pairs the
change won, `resolved` and `flagged`; with each checkout's sha (and
whether its tracked files differ from it), the `src/` line counts, the
seeds, and the nproc and Python version of the runs, which use this
script's interpreter.  `bench_file_problems` is the check
of such a file's keys that the tier-1 suite runs on every committed
`BENCH_*.json`.

`--workload readme` instead runs each `pierce-lab` command of the parent's
README "Command line" block as `python -m piercelab ...` in a fresh
interpreter with PYTHONPATH set to the checkout's `src/`, the parent
first in even pairs and the change first in odd ones.  It prints, per
command, each side's median and quartiles of wall time, the relative
change of the median, the number of pairs the change won and whether
the change is resolved, as above, for a wall time that is better
lower; a run that exits non-zero, or a pair
whose two stdout SHA-256 digests differ, is flagged and the exit code
is then 1.  It then times the same commands in process: each pair, in
the same alternating order, runs one child interpreter per checkout that
imports `piercelab.cli`, runs every command once through `cli.run` to
warm up, and then times each command over IN_PROCESS_REPEATS calls of
`cli.run`.  Before every call, the warm-up included, the child clears
`arith`'s log caches outside the timed span, so each call pays its cold
logs as a fresh `pierce-lab` process does.  A second table gives, per
command, the mean time of one call in milliseconds, with the same
columns; a child that exits non-zero is flagged.  Interpreter start and
import, which dominate the wall times, are outside these timings.  It
checks no bound.  After the pairs it runs the tier-1 suite,
`python -m pytest -q --continue-on-collection-errors` with PYTHONPATH set
to `src/`, once in each checkout and prints both wall times; a suite that
exits non-zero is flagged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

from readme_digests import readme_commands

# Timed calls of each README command per child interpreter, after one warm-up call.
IN_PROCESS_REPEATS = 5

# The child of the in-process timing: argv[1] is the JSON list of commands.
_IN_PROCESS = f"""
import io, json, shlex, sys, time
from piercelab import arith
from piercelab.cli import run

# ln2_enclosure's cache is functools.cache's, or a module dict in older checkouts
clear_ln2 = getattr(arith.ln2_enclosure, "cache_clear", None) or arith._LN2_CACHE.clear

def call(argv):
    arith._LOG2_CACHE.clear()
    clear_ln2()
    start = time.perf_counter()
    code = run(argv, io.StringIO(), io.StringIO())
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit("exited non-zero: " + " ".join(argv))
    return elapsed

argvs = [shlex.split(command)[1:] for command in json.loads(sys.argv[1])]
for argv in argvs:
    call(argv)
print(json.dumps([sum(call(argv) for _ in range({IN_PROCESS_REPEATS}))
                  * 1000 / {IN_PROCESS_REPEATS} for argv in argvs]))
"""


def child_env(**extra) -> dict:
    """The caller's environment without PYTHONDONTWRITEBYTECODE, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return {**env, **extra}


def run(checkout: str, workload: str, seed: int) -> dict:
    """One untraced benchmark run in `checkout`; returns its run record.

    The run length is `run_seconds` of the checkout's BENCHMARK.json.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    path = os.path.join(checkout, ".perfbench", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def benchmark_spec(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(spec: dict) -> dict:
    """Metric name -> (whether higher is better, bound), from BENCHMARK.json."""
    return {m["name"]: (m["better"] == "higher", m["bound"]) for m in spec["end_to_end"]}


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# The share of pairs that must move the same way as the medians for a resolved change.
AGREEING_PAIRS = (8, 10)


def resolution(pq: tuple, cq: tuple, wins: int, losses: int, pairs: int, higher: bool) -> str:
    """Whether the medians of cq and pq differ by more than pq's interquartile distance,
    with at least AGREEING_PAIRS of the pairs won for a gain, or lost for a loss; a tied
    pair counts for neither."""
    gain = cq[1] > pq[1] if higher else cq[1] < pq[1]
    agreeing = wins if gain else losses
    need = -(-AGREEING_PAIRS[0] * pairs // AGREEING_PAIRS[1])
    apart = abs(cq[1] - pq[1]) > pq[2] - pq[0]
    return "resolved" if apart and agreeing >= need else "unresolved"


def compare(args, metrics: dict, workload: str) -> tuple[list, dict]:
    """Run the pairs of one workload and print its table; returns the flagged lines
    and the table as the `workloads` entry of a `--json` file."""
    values = {name: ([], []) for name in metrics}
    table = {}
    flagged = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        checkouts = (args.parent, args.change)
        records = [None, None]
        for side in order:
            records[side] = run(checkouts[side], workload, seed)
        parent, change = records
        if not (parent["correct"] and change["correct"]):
            flagged.append(f"pair {i} (seed {seed}): a run is not correct")
        if parent["digest"] != change["digest"]:
            flagged.append(f"pair {i} (seed {seed}): digests differ")
        for name, (ps, cs) in values.items():
            ps.append(parent["metrics"][name]["value"])
            cs.append(change["metrics"][name]["value"])
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{name} {ps[-1]:.4g} -> {cs[-1]:.4g}" for name, (ps, cs) in values.items()),
            file=sys.stderr, flush=True)

    print(f"{workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1},"
          f" src_lines {parent['src_lines']} -> {change['src_lines']}")
    print(f"{'metric':18s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s}"
          f" {'median':>8s} {'wins':>6s}  resolution")
    for name, (ps, cs) in values.items():
        higher, bound = metrics[name]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(ps, cs))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(ps, cs))
        pq, cq = quartiles(ps), quartiles(cs)
        rel = (cq[1] - pq[1]) / pq[1]
        resolved = resolution(pq, cq, wins, losses, args.pairs, higher)
        print(f"{name:18s} {'/'.join(f'{v:.4g}' for v in pq):>30s}"
              f" {'/'.join(f'{v:.4g}' for v in cq):>30s} {rel:>+8.2%} {wins:>3d}/{args.pairs}"
              f"  {resolved}")
        worse = (-rel if higher else rel) > bound
        if worse:
            flagged.append(f"{name}: median {rel:+.2%} is worse than its bound of {bound:.0%}")
        table[name] = {"parent": dict(zip(QUARTILE_KEYS, pq)), "change": dict(zip(QUARTILE_KEYS, cq)),
                       "relative_change": rel, "wins": wins,
                       "resolved": resolved == "resolved", "flagged": worse}
    for msg in flagged:
        print(f"FLAGGED {workload} {msg}")
    sys.stdout.flush()
    return flagged, {"src_lines": {"parent": parent["src_lines"], "change": change["src_lines"]},
                     "flagged": flagged, "metrics": table}


FILE_KEYS = ("parent", "change", "pairs", "seeds", "nproc", "python", "workloads")
QUARTILE_KEYS = ("q1", "median", "q3")
ROW_KEYS = ("parent", "change", "relative_change", "wins", "resolved", "flagged")


def bench_file_problems(data: dict, metric_names) -> list:
    """What a `--json` file lacks, as messages: keys, and any of `metric_names` per workload."""
    problems = [f"file: no {key!r}" for key in FILE_KEYS if key not in data]
    problems += [f"{side}: no {key!r}" for side in ("parent", "change")
                 for key in ("sha", "dirty") if key not in data.get(side, {})]
    for workload, entry in data.get("workloads", {}).items():
        problems += [f"{workload}: no {key!r}" for key in ("src_lines", "flagged", "metrics")
                     if key not in entry]
        for name in metric_names:
            row = entry.get("metrics", {}).get(name)
            if row is None:
                problems.append(f"{workload}: no metric {name!r}")
                continue
            problems += [f"{workload} {name}: no {key!r}" for key in ROW_KEYS if key not in row]
            problems += [f"{workload} {name} {side}: no {key!r}" for side in ("parent", "change")
                         for key in QUARTILE_KEYS if key not in row.get(side, {})]
    return problems + ([] if data.get("workloads") else ["file: no workload"])


def checkout_sha(checkout: str) -> dict:
    """The HEAD sha of a git checkout, and whether its tracked files differ from it."""
    def git(*argv):
        proc = subprocess.run(["git", "-C", checkout, *argv], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    return {"sha": sha or "unknown",
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if sha else None}


def checkout_env(checkout: str) -> dict:
    """The child environment of a README command run from `checkout`'s sources."""
    return child_env(PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))


def print_times(times: dict, pairs: int) -> None:
    """One row per command: each side's quartiles, the median's change, wins, resolution."""
    print(f"{'parent q1/median/q3':>26s} {'change q1/median/q3':>26s} {'median':>8s} {'wins':>6s}"
          f"  {'resolution':10s}  command")
    for command, (ps, cs) in times.items():
        wins, losses = sum(c < p for p, c in zip(ps, cs)), sum(c > p for p, c in zip(ps, cs))
        pq, cq = quartiles(ps), quartiles(cs)
        print(f"{'/'.join(f'{v:.4g}' for v in pq):>26s} {'/'.join(f'{v:.4g}' for v in cq):>26s}"
              f" {(cq[1] - pq[1]) / pq[1]:>+8.2%} {wins:>3d}/{pairs}"
              f"  {resolution(pq, cq, wins, losses, pairs, False):10s}  {command}")


def compare_readme(args) -> list:
    """Time every README command in both checkouts, pair by pair; returns the flagged lines."""
    commands = readme_commands(Path(args.parent) / "README.md")
    checkouts = (args.parent, args.change)
    times = {command: ([], []) for command in commands}
    flagged = []
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for command in commands:
            digests = [None, None]
            for side in order:
                argv = [sys.executable, "-m", "piercelab", *shlex.split(command)[1:]]
                start = time.perf_counter()
                proc = subprocess.run(argv, cwd=checkouts[side], env=checkout_env(checkouts[side]),
                                      capture_output=True)
                times[command][side].append(time.perf_counter() - start)
                digests[side] = hashlib.sha256(proc.stdout).hexdigest()
                if proc.returncode != 0:
                    flagged.append(f"pair {i}: {checkouts[side]} exited {proc.returncode}: {command}")
            if digests[0] != digests[1]:
                flagged.append(f"pair {i}: stdout digests differ: {command}")
        print(f"pair {i}: {len(commands)} commands", file=sys.stderr, flush=True)

    print(f"readme: {args.pairs} pairs of {len(commands)} commands, wall time in seconds")
    print_times(times, args.pairs)

    in_process = {command: ([], []) for command in commands}
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            argv = [sys.executable, "-c", _IN_PROCESS, json.dumps(commands)]
            proc = subprocess.run(argv, cwd=checkouts[side], env=checkout_env(checkouts[side]),
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                flagged.append(f"in-process pair {i}: {checkouts[side]} exited"
                               f" {proc.returncode}: {proc.stderr.strip()[-200:]}")
                continue
            for command, mean in zip(commands, json.loads(proc.stdout)):
                in_process[command][side].append(mean)
        print(f"in-process pair {i}", file=sys.stderr, flush=True)
    if all(ps and len(ps) == len(cs) for ps, cs in in_process.values()):
        print(f"readme in process: {args.pairs} pairs, mean of {IN_PROCESS_REPEATS}"
              " cli.run calls with cold log caches, in milliseconds")
        print_times(in_process, args.pairs)

    for side, checkout in (("parent", args.parent), ("change", args.change)):
        env = checkout_env(checkout)
        argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
        summary = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
        print(f"tier-1 {side}: {time.perf_counter() - start:.2f} s wall, {summary}")
        if proc.returncode != 0:
            flagged.append(f"tier-1 in {checkout} exited {proc.returncode}")
    for msg in flagged:
        print(f"FLAGGED readme {msg}")
    return flagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, help="a workload name, all, or readme")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--json", metavar="PATH", help="also write the tables to PATH")
    args = parser.parse_args()

    if args.workload == "readme":
        if args.json:
            parser.error("--json needs a benchmark workload")
        return 1 if compare_readme(args) else 0
    spec = benchmark_spec(args.parent)
    metrics = end_to_end(spec)
    if args.workload == "all":
        workloads = [w["name"] for w in spec["workloads"]]
    else:
        workloads = [args.workload]
    tables = {workload: compare(args, metrics, workload) for workload in workloads}
    flagged = [msg for msgs, _ in tables.values() for msg in msgs]
    if args.json:
        data = {
            "parent": checkout_sha(args.parent), "change": checkout_sha(args.change),
            "pairs": args.pairs, "seeds": list(range(args.seed, args.seed + args.pairs)),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "workloads": {workload: table for workload, (_, table) in tables.items()},
        }
        problems = bench_file_problems(data, metrics)
        if problems:
            sys.exit(f"--json: {'; '.join(problems)}")
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
