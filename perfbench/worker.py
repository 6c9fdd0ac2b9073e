"""One benchmark session, run by run.py in a fresh interpreter.

The first thing the worker does is import piercelab and piercelab.cli, and
that import is its set-up sample; nothing else is imported before it, so
the stdlib modules piercelab needs are paid for there, as they are by every
`pierce-lab` invocation.  It then builds the session's inputs, optionally
installs the tracer, and runs the operations one after another: each is
timed alone, and its oracle and digest run outside the timed region.  The
result is one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --session S [--trace]
    python3 perfbench/worker.py --probe   # set-up sample only
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

_start = time.perf_counter()
import piercelab  # noqa: E402
import piercelab.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_FAILURE_MESSAGES = 5
REF_INTERVAL_S = 0.05  # run the reference computation after this much work


def reference() -> float:
    """Time a fixed stdlib computation: an exact harmonic sum, like the work timed."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k)
    return time.perf_counter() - start


def run_session(workload: str, seed: int, session: int, traced: bool) -> dict:
    wl = WORKLOADS[workload]
    ops = wl.session_ops(seed, session)
    inputs = wl.prepare(piercelab, ops)
    trace = tracer.Tracer() if traced else None
    unwrapped = tracer.install(trace) if traced else []

    digest = hashlib.sha256()
    latencies = []
    failures = []
    work = Counter()
    refs = [reference()]
    last_ref = time.perf_counter()
    for op, arg in zip(ops, inputs):
        if time.perf_counter() - last_ref >= REF_INTERVAL_S:
            refs.append(reference())
            last_ref = time.perf_counter()
        start = time.perf_counter()
        try:
            out = wl.run(piercelab, arg)
        except Exception as exc:  # a raising operation is a failed one
            latencies.append(time.perf_counter() - start)
            failures.append(f"{op!r:.200}: raised {exc!r:.200}")
            digest.update(b"FAILED\n")
            continue
        latencies.append(time.perf_counter() - start)
        try:
            record, done = wl.check(op, out)
        except Exception as exc:  # wrong or malformed output
            failures.append(f"{op!r:.200}: {exc!r:.200}")
            digest.update(b"FAILED\n")
            continue
        digest.update(record)
        work.update(done)
    refs.append(reference())

    return {
        "setup_s": SETUP_S,
        "reference_s": sum(refs) / len(refs),
        "latencies_s": latencies,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work": dict(work),
        "trace": trace.report() if traced else None,
        "unwrapped": unwrapped,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--session", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if not os.path.abspath(piercelab.__file__).startswith(SRC + os.sep):
        sys.exit(f"piercelab imported from {piercelab.__file__}, not from {SRC}")
    if args.probe:
        refs = [reference() for _ in range(5)]
        result = {"setup_s": SETUP_S, "reference_s": sum(refs) / len(refs)}
    else:
        result = run_session(args.workload, args.seed, args.session, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
