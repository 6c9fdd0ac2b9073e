"""The harness scripts' own contracts: committed BENCH_*.json files and interpreter checks.

`scripts/bench_pairs.py --json` writes a BENCH_*.json file; every such
file in the repository root must hold each end-to-end metric of
BENCHMARK.json for every workload it reports.  `scripts/interpreters.py`
must report an interpreter that cannot start as not run, not as a
difference in the bytes.
"""

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
interpreters = load_script("interpreters")
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


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
