"""piercelab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, defaults

One caller issues each operation after the previous one returns, in one
process and one thread.  A run is a sequence of sessions; each session is
a fresh interpreter (perfbench/worker.py) that imports piercelab, so its
log caches start empty as in every `pierce-lab` invocation, and runs a
fixed list of operations drawn from (seed, session).  Sessions start until
--seconds of wall time have passed and at least MIN_OPS operations are
timed.  Session 0 runs twice, and the two output digests must agree.

Times are calibrated.  The speed of a shared machine drifts by tens of
percent over minutes, so each worker also times a fixed stdlib computation
(worker.reference) every REF_INTERVAL_S of work, and its times are scaled
by REFERENCE_S over the mean of those.  The run record keeps the
uncalibrated figures too.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
session 0 plain and then traced (perfbench/tracer.py), prints the per-layer
metrics and the tracing overhead, and self-checks the traced counts.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; a
run record with the machine, the sample counts, the digests and the
self-checks goes to .perfbench/ in the checkout, a summary to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RECORD_DIR = os.path.join(ROOT, ".perfbench")

MIN_OPS = 200  # so that at least ten latencies lie beyond the 95th percentile
MIN_SETUP_SAMPLES = 9
# worker.reference() takes this long on an idle core of the 2-core x86-64
# box (Python 3.11) that defined the benchmark; times are scaled to that speed.
REFERENCE_S = 0.0015
HARD_LIMIT_S = 120  # stop starting sessions after this, whatever MIN_OPS says
RUN_LIMIT_S = 165  # a run that would take longer fails without a result


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(deadline: float, *args: str) -> dict:
    """Run worker.py in a fresh isolated interpreter and return its JSON result."""
    cmd = [sys.executable, "-I", WORKER, *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def session(deadline: float, workload: str, seed: int, index: int,
            traced: bool = False) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--session", str(index)]
    return spawn(deadline, *args, *(["--trace"] if traced else []))


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def failures(runs: list) -> list:
    return [msg for r in runs for msg in r["failures"]]


def scale(run: dict) -> float:
    """Factor that brings a worker's times to the speed REFERENCE_S stands for."""
    return REFERENCE_S / run["reference_s"]


def timing_metrics(latencies: list, failed: int, setups: list) -> dict:
    return {
        "throughput_ops_s": (len(latencies) - failed) / sum(latencies),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p95_ms": 1e3 * percentile(latencies, 95),
        "setup_s": statistics.median(setups),
    }


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the run record."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spawn(deadline, "--probe")  # writes the bytecode cache, as an installed package has it
    runs = []
    for index in itertools.chain((0, 0), itertools.count(1)):
        runs.append(session(deadline, workload, seed, index))
        elapsed = time.monotonic() - start
        ops = sum(len(r["latencies_s"]) for r in runs)
        if len(runs) >= 2 and (elapsed >= seconds and ops >= MIN_OPS
                               or elapsed >= HARD_LIMIT_S):
            break
    probes = runs + [spawn(deadline, "--probe")
                     for _ in range(MIN_SETUP_SAMPLES - len(runs))]

    failed = sum(r["failed"] for r in runs)
    raw = [t for r in runs for t in r["latencies_s"]]
    metrics = timing_metrics(
        [t * scale(r) for r in runs for t in r["latencies_s"]], failed,
        [r["setup_s"] * scale(r) for r in probes],
    )
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    record = {
        "sessions": [{k: r[k] for k in ("failed", "digest", "setup_s", "reference_s",
                                        "peak_rss_mb")} | {"ops": len(r["latencies_s"])}
                     for r in runs],
        "uncalibrated": timing_metrics(raw, failed, [r["setup_s"] for r in probes]),
        "samples": len(raw),
        "setup_samples": len(probes),
        "attempted": len(raw),
        "failed": failed,
        "ops_failed_frac": failed / len(raw),
        "failures": failures(runs),
        "digest": runs[0]["digest"],
        "digest_repeats": runs[0]["digest"] == runs[1]["digest"],
    }
    return metrics, record


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    """Session 0 plain, then traced: per-layer metrics and the run record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = session(deadline, workload, seed, 0)
    traced = session(deadline, workload, seed, 0, traced=True)
    trace, work = traced["trace"], traced["work"]
    metrics = tracer.layer_metrics(trace)
    metrics["trace_overhead_frac"] = (
        sum(traced["latencies_s"]) * scale(traced)
        / (sum(plain["latencies_s"]) * scale(plain)) - 1)

    counters = trace["counters"]
    checks = {
        "every namespace binding is wrapped": not traced["unwrapped"],
        "exponent.growth_ratio.calls == exponent.indices_scanned":
            metrics["exponent.growth_ratio.calls"] == metrics["exponent.indices_scanned"],
    }
    oracle_counts = {  # oracle work key -> (check name, traced count)
        "digits": ("digits returned to the benchmark == oracle digit count",
                   trace["top_digits"]),
        "indices": ("exponent.indices_scanned == oracle index count",
                    counters.get("exponent.indices_scanned", 0)),
        "bytes": ("cli.bytes_out == oracle byte count", counters.get("cli.bytes_out", 0)),
        "cover_terms": ("dimension.cover_terms == oracle term count",
                        counters.get("dimension.cover_terms", 0)),
    }
    for key, expected in work.items():
        name, count = oracle_counts[key]
        checks[name] = count == expected

    runs = (plain, traced)
    failed = plain["failed"] + traced["failed"]
    attempted = len(plain["latencies_s"]) + len(traced["latencies_s"])
    record = {
        "samples": len(traced["latencies_s"]),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": failures(runs),
        "digest": plain["digest"],
        "digest_repeats": plain["digest"] == traced["digest"],
        "self_checks": checks,
        "unwrapped": traced["unwrapped"],
        "oracle_work": work,
        "layer_wait_s": 0.0,
        "layer_wait_note": "one process, one thread: no layer waits on another",
    }
    return metrics, record


def git_sha() -> str:
    """HEAD of the checkout read from .git, without running git; else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_workload(workload: str, args, spec: dict) -> dict:
    if args.trace:
        values, record = measure_traced(workload, args.seed)
        kind = "per_layer"
    else:
        values, record = measure(workload, args.seed, args.seconds)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = record["failed"] == 0 and record["digest_repeats"]
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "git_sha": git_sha(),
        "src_lines": src_lines(), "correct": correct, **record, "metrics": metrics,
    }
    os.makedirs(RECORD_DIR, exist_ok=True)
    path = os.path.join(RECORD_DIR, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{workload}: seed {args.seed}, {record['samples']} samples, "
          f"ops_failed_frac {record['ops_failed_frac']}, digest {record['digest'][:16]}"
          f"{'' if record['digest_repeats'] else ' (DIGESTS DIFFER)'}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for name, ok in record.get("self_checks", {}).items():
        print(f"  self-check {'PASS' if ok else 'FAIL'}: {name}", file=sys.stderr)
    for msg in record["failures"][:5]:
        print(f"  FAILED {msg}", file=sys.stderr)
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="wall time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "piercelab", "__init__.py")):
        print(f"no piercelab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    try:
        if args.workload != "all":
            result = run_workload(args.workload, args, spec)
        else:
            results = {w: run_workload(w, args, spec) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
