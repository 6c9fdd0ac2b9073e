"""The harness scripts' own contracts: committed BENCH_*.json files and interpreter checks.

`scripts/bench_pairs.py --json` writes a BENCH_*.json file; every such
file in the repository root must hold each end-to-end metric of
BENCHMARK.json for every workload it reports, and a row is resolved
only when most pairs share its shift.  `scripts/interpreters.py`
must report an interpreter that cannot start as not run, not as a
difference in the bytes.
"""

import contextlib
import copy
import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    sys.path.insert(0, str(SCRIPTS))  # bench_pairs imports readme_digests beside it
    try:
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


bench_pairs = load_script("bench_pairs")
check = load_script("check")
interpreters = load_script("interpreters")
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
CHECK_FILES = sorted(ROOT.glob("CHECK_*.json"))


class TestBenchFiles:
    def test_a_bench_file_is_committed(self):
        assert BENCH_FILES

    @pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
    def test_every_metric_is_recorded(self, path):
        assert bench_pairs.bench_file_problems(json.loads(path.read_text()), METRICS) == []

    def test_a_missing_metric_fails_the_check(self):
        data = json.loads(BENCH_FILES[-1].read_text())
        for workload in data["workloads"]:
            for name in METRICS:
                broken = copy.deepcopy(data)
                del broken["workloads"][workload]["metrics"][name]
                assert bench_pairs.bench_file_problems(broken, METRICS) == [
                    f"{workload}: no metric {name!r}"]
        broken = copy.deepcopy(data)
        del broken["workloads"][workload]["metrics"][METRICS[0]]["change"]["median"]
        assert bench_pairs.bench_file_problems(broken, METRICS)
        assert bench_pairs.bench_file_problems({}, METRICS)


class TestResolution:
    # a wall time, better lower: the change's median 3.95 % slower, outside the parent's quartiles
    PARENT = [1.0] * 10

    def test_a_shift_most_pairs_do_not_share_is_unresolved(self):
        change = [0.99] * 3 + [1.0395] * 7  # the change won 3 of 10 pairs
        wins = sum(c < p for p, c in zip(self.PARENT, change))
        pq, cq = bench_pairs.quartiles(self.PARENT), bench_pairs.quartiles(change)
        assert wins == 3 and cq[1] == 1.0395 and cq[1] - pq[1] > pq[2] - pq[0]
        assert bench_pairs.resolution(pq, cq, wins, 7, 10, False) == "unresolved"

    def test_a_shift_eight_in_ten_pairs_share_is_resolved(self):
        change = [0.99] * 2 + [1.0395] * 8
        pq, cq = bench_pairs.quartiles(self.PARENT), bench_pairs.quartiles(change)
        assert bench_pairs.resolution(pq, cq, 2, 8, 10, False) == "resolved"
        assert bench_pairs.resolution(cq, pq, 8, 2, 10, True) == "unresolved"  # 8 wins, median lost

    def test_ties_count_for_neither_side(self):
        # 6 pairs lost and 4 tied, over a zero interquartile distance: only 6 of 10 lost
        change = [1.0] * 4 + [1.0395] * 6
        losses = sum(c > p for p, c in zip(self.PARENT, change))
        pq, cq = bench_pairs.quartiles(self.PARENT), bench_pairs.quartiles(change)
        assert losses == 6 and cq[1] - pq[1] > pq[2] - pq[0] == 0
        assert bench_pairs.resolution(pq, cq, 0, losses, 10, False) == "unresolved"


class TestCheckFiles:
    def test_every_check_is_recorded(self):
        # scripts/check.py runs this suite before it writes its file, so none may exist yet
        for path in CHECK_FILES:
            assert check.check_file_problems(json.loads(path.read_text())) == [], path.name

    def test_a_missing_check_fails_the_check(self):
        entry = {"command": "true", "exit_code": 0, "counts": {}, "ok": True}
        data = {"head": {"sha": "0"}, "parent": {"sha": "0"}, "python": "3",
                "checks": {name: dict(entry) for name in check.CHECKS}, "failed": []}
        assert check.check_file_problems(data) == []
        for name in check.CHECKS:
            broken = copy.deepcopy(data)
            del broken["checks"][name]
            assert check.check_file_problems(broken) == [f"no check {name!r}"]
        del data["checks"]["mutants"]["counts"]
        assert check.check_file_problems(data) == ["mutants: no 'counts'"]

    def test_one_failing_check_fails_the_script(self, tmp_path, monkeypatch):
        def entry(ok):
            return lambda: {"command": "c", "exit_code": 1 - ok, "counts": {}, "ok": ok}

        monkeypatch.setattr(check, "ROOT", tmp_path)
        monkeypatch.setattr(check, "checks_of", lambda args: {"a": entry(True), "b": entry(False)})
        with redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert check.main(["7"]) == 1
        data = json.loads((tmp_path / "CHECK_7.json").read_text())
        assert data["failed"] == ["b"] and data["checks"]["a"]["ok"]
        monkeypatch.setattr(check, "checks_of", lambda args: {"a": entry(True)})
        with redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert check.main(["7"]) == 0


class TestInterpreters:
    def test_an_interpreter_that_exits_at_once_did_not_run(self, tmp_path):
        stub = tmp_path / "python-stub"
        stub.write_text("#!/bin/sh\nexit 1\n")
        stub.chmod(0o755)
        out = io.StringIO()
        with redirect_stdout(out):
            code = interpreters.main([str(stub), str(tmp_path / "missing-python")])
        assert code == interpreters.DID_NOT_RUN
        lines = out.getvalue().splitlines()
        assert lines == [f"{stub}: did not run", f"{tmp_path / 'missing-python'}: did not run",
                         "2 interpreters, 2 did not run, 0 differences"]
