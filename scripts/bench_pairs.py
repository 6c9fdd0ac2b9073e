"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S

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
median and quartiles, the relative change of the median and the number
of pairs the change won.  A pair whose run is not `correct`, or whose two
digests differ, is flagged, and so is a metric whose median is worse than
the parent's by more than its `bound` in BENCHMARK.json; the exit code is
then 1.  Stdlib only; it only reads BENCHMARK.json and changes nothing
under `perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout: str, workload: str, seed: int) -> dict:
    """One untraced benchmark run in `checkout`; returns its run record.

    The run length is `run_seconds` of the checkout's BENCHMARK.json.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
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


def compare(args, metrics: dict, workload: str) -> list:
    """Run the pairs of one workload and print its table; returns the flagged lines."""
    values = {name: ([], []) for name in metrics}
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
          f" {'median':>8s} {'wins':>6s}")
    for name, (ps, cs) in values.items():
        higher, bound = metrics[name]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(ps, cs))
        pq, cq = quartiles(ps), quartiles(cs)
        rel = (cq[1] - pq[1]) / pq[1]
        print(f"{name:18s} {'/'.join(f'{v:.4g}' for v in pq):>30s}"
              f" {'/'.join(f'{v:.4g}' for v in cq):>30s} {rel:>+8.2%} {wins:>3d}/{args.pairs}")
        if (-rel if higher else rel) > bound:
            flagged.append(f"{name}: median {rel:+.2%} is worse than its bound of {bound:.0%}")
    for msg in flagged:
        print(f"FLAGGED {workload} {msg}")
    sys.stdout.flush()
    return flagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()

    spec = benchmark_spec(args.parent)
    metrics = end_to_end(spec)
    if args.workload == "all":
        workloads = [w["name"] for w in spec["workloads"]]
    else:
        workloads = [args.workload]
    flagged = [msg for workload in workloads for msg in compare(args, metrics, workload)]
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
