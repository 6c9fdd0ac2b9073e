import argparse
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import piercelab
from piercelab import arith, dimension, rules
from piercelab.cli import _COMMANDS, _PRECISION, REPORT_SCHEMA, _build_parser, run

README = Path(__file__).resolve().parent.parent / "README.md"

# The help text of `pierce-lab --help`, which the command table generates.
USAGE = """usage: pierce-lab [--format json|csv] COMMAND ...

commands:
  expand     digit sequence, dual representation, and shift orbit of p/q
  eval       expansion value and fundamental interval of a digit prefix
  lambda     exponent window diagnostic and certificate for a digit rule
  construct  certified-exponent witness inside an interval
  divergent  divergent-tail rule and its reciprocal power sums
  cover      covering-series term/ratio ledger and verdict
  grid       witness sweep over all dyadic cells of a given depth
  sample     seeded Monte Carlo digit statistics
"""

# (command, flag) -> limit of each guarded table entry; the shared precision
# entry is listed once, as (None, "--bits").
GUARDS = {
    (None if entry is _PRECISION else command, entry[0]): entry[1].limit
    for command, (_, _, flags) in _COMMANDS.items()
    for entry in flags
    if getattr(entry[1], "limit", None) is not None
}


# Earlier versions read the precision from this variable; tests set it to check that nothing does.
ENV_PRECISION = "PIERCE_LAB_PRECISION_BITS"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def lines_of(payload: str) -> list[dict]:
    return [json.loads(line) for line in payload.splitlines()]


class TestExpand:
    def test_seven_tenths(self):
        code, out, _ = invoke(["expand", "7/10"])
        assert code == 0
        (report,) = lines_of(out)
        assert report["results"]["digits"] == [1, 3, 10]
        assert report["results"]["tau"] == [1, 3, 9, 10]
        assert report["results"]["orbit"] == ["3/10", "1/10", "0/1"]

    def test_endpoints(self):
        code, out, _ = invoke(["expand", "0/1"])
        (report,) = lines_of(out)
        assert report["results"]["digits"] == []
        assert report["results"]["tau"] is None

    def test_domain_error_exit_code(self):
        code, _, err = invoke(["expand", "3/2"])
        assert code == 2
        assert "domain error" in err


class TestEval:
    def test_prefix_two(self):
        code, out, _ = invoke(["eval", "--prefix", "2", "--bits", "8"])
        assert code == 0
        (report,) = lines_of(out)
        assert report["results"]["value"] == "1/2"
        assert report["results"]["interval"] == ["1/3", "1/2"]
        assert report["results"]["diameter"] == "1/6"

    def test_rule_enclosure(self):
        code, out, _ = invoke(
            ["eval", "--prefix", "2", "--rule", "power", "--alpha", "1/2", "--bits", "32"]
        )
        (report,) = lines_of(out)
        lo, hi = report["results"]["value"]
        assert "/" in lo and "/" in hi


class TestLambdaCommand:
    def test_certified_and_window(self):
        code, out, _ = invoke(
            ["lambda", "--rule", "power", "--prefix", "2", "--alpha", "1/2", "--window", "500"]
        )
        assert code == 0
        (report,) = lines_of(out)
        assert report["results"]["certificate"] == "1/2"
        assert report["results"]["window"] == [250, 500]
        assert report["results"]["window_certifies"] is False

    def test_power_at_zero_is_the_tower(self):
        window = ["--prefix", "2", "--window", "50"]
        code, out, _ = invoke(["lambda", "--rule", "power", "--alpha", "0"] + window)
        assert code == 0
        code, tower, _ = invoke(["lambda", "--rule", "tower"] + window)
        assert code == 0
        ((power,), (tower,)) = lines_of(out), lines_of(tower)
        assert power["results"] == tower["results"]
        assert power["results"]["rule"] == {"family": "tower", "prefix": [2]}


# argv reading an exponent, with {} for it -> whether exponent 0 is admitted
EXPONENT_ARGV = [
    (["eval", "--prefix", "2", "--rule", "power", "--alpha", "{}"], True),
    (["lambda", "--rule", "power", "--prefix", "2", "--alpha", "{}", "--window", "10"], True),
    (["lambda", "--rule", "binary", "--alpha", "{}", "--pattern", "01", "--window", "10"], True),
    (["construct", "--alpha", "{}", "--in", "0,1"], True),
    (["grid", "--alpha", "{}", "--depth", "1"], True),
    (["divergent", "--s", "{}", "--prefix", "2", "--j", "1"], False),
]


@pytest.mark.parametrize("argv, allow_zero", EXPONENT_ARGV,
                         ids=[" ".join(argv[:3]) for argv, _ in EXPONENT_ARGV])
def test_exponent_range_message(argv, allow_zero):
    for bad in ("-1", "3/2"):
        code, out, err = invoke([a.format(bad) for a in argv])
        assert_one_line_domain_error(code, out, err)
        assert f"value {bad} lies outside [0, 1]" in err
    code, out, err = invoke([a.format(0) for a in argv])
    if allow_zero:
        assert code == 0
    else:
        assert_one_line_domain_error(code, out, err)
        assert "value 0 lies outside (0, 1]" in err


class TestDivergent:
    def test_readme_invocation(self):
        from fractions import Fraction

        code, out, _ = invoke(
            ["divergent", "--s", "1/2", "--prefix", "2,9,16", "--j", "2", "--terms", "1000"]
        )
        assert code == 0
        (report,) = lines_of(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        res = report["results"]
        assert res["verdict"] == "divergent"
        lo, hi = (Fraction(t) for t in res["partial_sum"])
        assert lo <= hi
        terms = res["first_terms"]
        assert all(a < b for a, b in zip(terms, terms[1:]))

    def test_zero_terms_is_an_empty_sum(self):
        code, out, _ = invoke(["divergent", "--s", "1/2", "--prefix", "2,9,16", "--j", "2",
                               "--terms", "0"])
        assert code == 0
        (report,) = lines_of(out)
        assert report["results"]["partial_sum"] == ["0/1", "0/1"]
        assert report["results"]["n_terms"] == 0


def assert_one_line_domain_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("domain error") and err.count("\n") == 1


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda", "--rule", "binary", "--alpha", "1/2", "--pattern", "0x", "--window", "10"],
            ["construct", "--alpha", "1/2", "--in", "1/3,1/2", "--bits", "-1"],
            ["eval", "--prefix", "2", "--bits", "-1"],
            # decimal input is refused: only "n" and "p/q" are rationals
            ["expand", "1e-3"],
            ["expand", "0.5"],
            ["expand", "1_0/2_0"],
            ["construct", "--alpha", "0.5", "--in", "0.25,0.5"],
            # a family flag is refused where the family does not read it
            ["eval", "--prefix", "2", "--alpha", "0.5"],
            ["lambda", "--rule", "tower", "--alpha", "0.5", "--window", "10"],
            ["lambda", "--rule", "linear", "--alpha", "1e-3", "--window", "10"],
            ["eval", "--prefix", "2", "--alpha", "1/2"],
            ["eval", "--prefix", "2", "--rule", "tower", "--alpha", "1/2"],
            ["lambda", "--rule", "tower", "--alpha", "1/2", "--window", "10"],
            ["lambda", "--rule", "linear", "--pattern", "1", "--window", "10"],
            ["lambda", "--rule", "tower", "--prefix", "2", "--offset", "0", "--window", "10"],
            ["lambda", "--rule", "tower", "--prefix", "2", "--pattern", "01", "--window", "10"],
            ["lambda", "--rule", "binary", "--alpha", "1/2", "--pattern", "01", "--offset", "1",
             "--window", "10"],
        ],
    )
    def test_flag_inputs(self, argv):
        assert_one_line_domain_error(*invoke(argv))

    def test_negative_positional_rational(self):
        code, out, err = invoke(["expand", "-3/4"])
        assert_one_line_domain_error(code, out, err)
        assert "-3/4" in err and "outside [0, 1]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand"],
            ["lambda", "--rule", "foo", "--window", "3"],
            ["expand", "1/2", "2"],
            # the window scan runs at its own fixed precision, so lambda has no --bits
            ["lambda", "--rule", "power", "--prefix", "2", "--alpha", "1/2", "--window", "1000",
             "--bits", "8"],
        ],
    )
    def test_usage_error_is_one_line(self, argv, capsys):
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error") and err.count("\n") == 1
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "--alpha", "1/2", "--in", "1/2,1/3"], "endpoints out of order"),
            (["construct", "--alpha", "1/2", "--in", "1/3,3/2"], "not within [0, 1]"),
            (["divergent", "--s", "1/2", "--prefix", "2", "--j", "-1"], "must be non-negative"),
            (["divergent", "--s", "1/2", "--prefix", "2", "--j", "2"], "exceeds the available"),
            (["lambda", "--rule", "linear", "--prefix", "5,7", "--pattern", "1", "--window", "100"],
             "lambda with --rule linear does not read --prefix"),
            (["lambda", "--rule", "power", "--prefix", "2", "--alpha", "1/2", "--offset", "3",
              "--window", "10"], "lambda with --rule power does not read --offset"),
            (["lambda", "--rule", "binary", "--alpha", "1/2", "--pattern", "01", "--prefix", "2",
              "--window", "10"], "lambda with --rule binary does not read --prefix"),
            (["eval", "--prefix", "2", "--alpha", "1/2"],
             "eval with no --rule does not read --alpha"),
            (["eval", "--prefix", "2", "--rule", "power"], "--rule power requires --alpha"),
            (["lambda", "--rule", "binary", "--alpha", "1/2", "--window", "10"],
             "--rule binary requires --alpha and --pattern"),
            (["construct", "--alpha", "1/2", "--in", "1/2,1/2"], "interval [1/2, 1/2] has no interior"),
        ],
    )
    def test_message_names_the_fault(self, argv, message):
        code, out, err = invoke(argv)
        assert_one_line_domain_error(code, out, err)
        assert message in err

    def test_negative_env_precision(self, monkeypatch):
        argv = ["construct", "--alpha", "1/2", "--in", "1/3,1/2"]
        expected = invoke(argv)
        monkeypatch.setenv(ENV_PRECISION, "-1")
        assert invoke(argv) == expected and expected[0] == 0

    def test_empty_env_precision(self, monkeypatch):
        monkeypatch.setenv(ENV_PRECISION, "")
        code, out, err = invoke(["expand", "1/2"])
        assert (code, err) == (0, "") and lines_of(out)[0]["results"]["digits"] == [2]

    @pytest.mark.parametrize("flag", [["--pattern", "01"], ["--offset", "3"]])
    def test_eval_has_no_rule_only_flags(self, flag):
        code, _, _ = invoke(["eval", "--prefix", "2"] + flag)
        assert code == 2


class TestGuards:
    def test_grid_guard_exit_code(self):
        code, _, err = invoke(["grid", "--alpha", "1/2", "--depth", "13"])
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_grid_depth_below_one_exits_2(self, depth):
        code, out, err = invoke(["grid", "--alpha", "1/2", "--depth", depth])
        assert (code, out) == (2, "")
        assert err == "domain error: grid depth must be at least 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # a rational past Python's 4300-digit int-to-str limit
            ["eval", "--prefix", "2", "--rule", "power", "--alpha", "1/10000"],
            # an integer digit past that limit, in both output formats
            ["divergent", "--s", "1/10000", "--prefix", "2", "--j", "1"],
            ["--format", "csv", "divergent", "--s", "1/10000", "--prefix", "2", "--j", "1"],
        ],
    )
    def test_number_too_long_to_print(self, argv):
        code, out, err = invoke(argv)
        assert code == 3 and out == ""
        assert err.startswith("guard exceeded") and err.count("\n") == 1

    def test_digit_limit_is_exact(self):
        assert arith.TEN_TO_MAX_DIGITS == 10**4300 and len(str(10**4300 - 1)) == 4300
        for n, too_long in [(10**4300 - 1, False), (10**4300, True), (1 - 10**4300, False)]:
            x = Fraction(n, 7)
            if too_long:
                with pytest.raises(arith.GuardExceededError):
                    arith.rational_str(x)
            else:
                assert arith.rational_str(x) == f"{n}/7"
        # floor(10**4300) is the third term: one digit too many
        code, out, err = invoke(["divergent", "--s", "1/4300", "--prefix", "8", "--j", "1"])
        assert (code, out) == (3, "")
        assert err == "guard exceeded: report number too long to print: more than 4300 digits\n"
        # a 4300-digit numeral parses, one more digit does not
        assert invoke(["expand", "1/1" + "0" * 4299])[0] == 0
        code, out, err = invoke(["expand", "1/1" + "0" * 4300])
        assert (code, out) == (2, "")
        assert err.endswith(": a numeral of more than 4300 digits\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_lower_interpreter_limit_in_process_is_a_guard(self):
        # a host process that calls run() with a limit below MAX_DIGITS: one line, exit 3
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            code, out, err = invoke(["divergent", "--s", "1/2000", "--prefix", "2", "--j", "1"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (3, "")
        assert err.startswith("guard exceeded: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, code", [
        (["divergent", "--s", "1/9000", "--prefix", "2", "--j", "1"], 3),
        (["expand", "1/1" + "0" * 5000], 2),
    ])
    def test_interpreter_digit_limit_decides_nothing(self, argv, code):
        src = os.path.dirname(os.path.dirname(piercelab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        runs = []
        for digits in (None, "0", "100000", "1000"):
            setting = {} if digits is None else {"PYTHONINTMAXSTRDIGITS": digits}
            proc = subprocess.run([sys.executable, "-m", "piercelab", *argv], capture_output=True,
                                  env={**env, **setting, "PYTHONPATH": path})
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0][:2] == (code, b"") and runs[0][2].count(b"\n") == 1
        assert runs == [runs[0]] * 4

    @pytest.mark.parametrize(
        "argv",
        [
            # floor(3**(10**6)) has about 1.58 million bits
            ["eval", "--prefix", "2", "--rule", "power", "--alpha", "1/1000000"],
            # floor(5**(1000001/2)) is the first digit past the guard
            ["lambda", "--rule", "power", "--prefix", "2", "--alpha", "2/1000001",
             "--window", "10"],
        ],
    )
    def test_digit_size_guard(self, argv, monkeypatch):
        root = rules.integer_root

        def bounded_root(m, p):  # no floor past the guard is ever taken
            assert m.bit_length() <= p * (rules.DIGIT_BITS_GUARD + 1)
            return root(m, p)

        monkeypatch.setattr(rules, "integer_root", bounded_root)
        code, out, err = invoke(argv)
        assert code == 3 and out == ""
        assert err.startswith("guard exceeded: digit") and err.count("\n") == 1
        assert str(rules.DIGIT_BITS_GUARD) in err

    # A valid invocation of each command, cheap enough that only a guard stops it.
    BASE = {
        "expand": ["expand", "1/2"],
        "eval": ["eval", "--prefix", "2", "--rule", "power", "--alpha", "1/2"],
        "lambda": ["lambda", "--rule", "tower", "--window", "10"],
        "construct": ["construct", "--alpha", "1/2", "--in", "1/3,1/2"],
        "divergent": ["divergent", "--s", "1/2", "--prefix", "2,9,16", "--j", "2", "--terms", "9"],
        "cover": ["cover", "--alpha", "1/2", "--beta", "1/2", "--eps", "1/10", "--s", "3",
                  "--kmax", "20"],
        "grid": ["grid", "--alpha", "1/2", "--depth", "2"],
        "sample": ["sample", "--bits", "256", "--count", "1", "--seed", "1"],
    }
    PAST = ("next", "99999999999999999999")  # one past the limit, and far past it

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Replace every handler by one that fails: a guard must refuse first."""
        def refuse(args, bits):
            raise AssertionError("a guarded value reached its handler")

        for name, (_, summary, flags) in list(_COMMANDS.items()):
            monkeypatch.setitem(_COMMANDS, name, (refuse, summary, flags))

    @staticmethod
    def past(limit, kind):
        return str(limit + 1) if kind == "next" else kind

    def assert_refused(self, code, out, err, limit):
        assert code == 3 and out == ""
        assert err.startswith("guard exceeded") and err.count("\n") == 1
        assert f"exceeds the guard {limit}" in err

    @pytest.mark.parametrize("kind", PAST)
    @pytest.mark.parametrize("command, flag", [key for key in GUARDS if key[0]])
    def test_flag_guard(self, command, flag, kind, no_work):
        limit = GUARDS[command, flag]
        argv = self.BASE[command] + [flag, self.past(limit, kind)]
        self.assert_refused(*invoke(argv), limit)

    @pytest.mark.parametrize("kind", PAST)
    @pytest.mark.parametrize(
        "command", [c for c, (_, _, flags) in _COMMANDS.items() if _PRECISION in flags])
    def test_precision_flag_guard(self, command, kind, no_work):
        limit = GUARDS[None, "--bits"]
        argv = self.BASE[command] + ["--bits", self.past(limit, kind)]
        self.assert_refused(*invoke(argv), limit)

    @pytest.mark.parametrize("kind", PAST)
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_precision_env_and_config_guard(self, command, kind, monkeypatch, tmp_path):
        # --bits is the one source of precision: a value past its guard in the
        # variable changes nothing, and a config file is refused unread.
        value = self.past(GUARDS[None, "--bits"], kind)
        expected = invoke(self.BASE[command])
        monkeypatch.setenv(ENV_PRECISION, value)
        assert invoke(self.BASE[command]) == expected and expected[0] == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"precision_bits": {value}}}')
        code, out, err = invoke(["--config", str(cfg)] + self.BASE[command])
        assert (code, out) == (2, "") and err.startswith("usage error") and err.count("\n") == 1

    def test_sample_work_guard(self, monkeypatch):
        # --bits and --count each within their limits, their work past its guard
        limit = dimension.SAMPLE_WORK_GUARD
        count = limit // 65536**2
        for argv_count in ("5000", str(count + 1)):
            argv = ["sample", "--bits", "65536", "--count", argv_count, "--seed", "1"]
            self.assert_refused(*invoke(argv), limit)

        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started

        monkeypatch.setattr(dimension, "_safe_run", started)
        with pytest.raises(Started):  # the limit itself is admitted
            dimension.sample_digit_statistics(65536, count, 1)
        with pytest.raises(Started):  # the README run and every benchmark draw
            dimension.sample_digit_statistics(4096, 500, 1)

    def test_readme_lists_each_guard(self):
        text = README.read_text(encoding="utf-8")
        note = text[text.index("- **Guards.**"):]
        listed = {(command or None, flag): int(limit) for command, flag, limit
                  in re.findall(r"`(?:([a-z]+) )?(--[a-z]+)` ([0-9]+)", note)}
        assert listed == GUARDS
        assert f"`--count` × `--bits`² {dimension.SAMPLE_WORK_GUARD}" in note
        for command, (_, _, flags) in _COMMANDS.items():
            for name, parse, _ in flags:  # the limit itself is accepted
                if getattr(parse, "limit", None) is not None:
                    assert parse(str(parse.limit)) == parse.limit

    def test_unknown_subcommand(self):
        code, _, err = invoke(["frobnicate", "--x", "1"])
        assert code == 64
        assert "usage" in err

    def test_no_args(self):
        code, _, err = invoke([])
        assert code == 64


class TestDeterminismAndSchema:
    def test_byte_identical_repeats(self):
        for argv in (
            ["expand", "355/1130"],
            ["cover", "--alpha", "1/2", "--beta", "1/2", "--eps", "1/10", "--s", "3", "--kmax", "40"],
            ["sample", "--bits", "256", "--count", "3", "--seed", "9"],
            ["grid", "--alpha", "1/2", "--depth", "3"],
        ):
            code1, out1, _ = invoke(argv)
            code2, out2, _ = invoke(argv)
            assert code1 == code2 == 0
            assert out1 == out2

    def test_schema(self):
        _, out, _ = invoke(["sample", "--bits", "256", "--count", "2", "--seed", "3"])
        for report in lines_of(out):
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_no_bare_floats(self):
        _, out, _ = invoke(["sample", "--bits", "256", "--count", "2", "--seed", "3"])
        for report in lines_of(out):
            def walk(node):
                if isinstance(node, dict):
                    for v in node.values():
                        walk(v)
                elif isinstance(node, list):
                    for v in node:
                        walk(v)
                else:
                    assert not isinstance(node, float)
            walk(report)

    def test_rationals_round_trip(self):
        from fractions import Fraction

        _, out, _ = invoke(["expand", "7/10"])
        (report,) = lines_of(out)
        for text in report["results"]["orbit"]:
            f = Fraction(text)
            assert f"{f.numerator}/{f.denominator}" == text


class TestStreaming:
    def test_grid_emits_cells_plus_summary(self):
        _, out, _ = invoke(["grid", "--alpha", "1/2", "--depth", "3"])
        reports = lines_of(out)
        assert len(reports) == 8 + 1
        kinds = [r["results"]["kind"] for r in reports]
        assert kinds.count("cell") == 8 and kinds[-1] == "summary"
        assert reports[-1]["results"]["all_witnessed"] is True

    def test_sample_stream(self):
        _, out, _ = invoke(["sample", "--bits", "256", "--count", "4", "--seed", "1"])
        reports = lines_of(out)
        assert len(reports) == 5
        assert reports[-1]["results"]["kind"] == "summary"
        assert reports[0]["provenance"]["seed"] == 1


class TestFormatsAndConfig:
    def test_csv(self):
        code, out, _ = invoke(["--format", "csv", "expand", "7/10"])
        assert code == 0
        rows = [line.split(",", 2) for line in out.splitlines()]
        assert all(row[0] == "0" for row in rows)
        keys = [row[1] for row in rows]
        assert "results.digits[0]" in keys

    def test_env_precision(self, monkeypatch):
        monkeypatch.setenv(ENV_PRECISION, "24")
        _, out, _ = invoke(["eval", "--prefix", "2"])
        (report,) = lines_of(out)
        assert report["provenance"]["precision_bits"] == 64

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_PRECISION, "24")
        _, out, _ = invoke(["eval", "--prefix", "2", "--bits", "16"])
        (report,) = lines_of(out)
        assert report["provenance"]["precision_bits"] == 16

    def test_config_is_a_usage_error(self, tmp_path):
        # named as an unknown option before the command too, where its value
        # must not be taken for the command
        cfg = tmp_path / "f.json"
        cfg.write_text('{"precision_bits": 40}')
        command = ["eval", "--prefix", "2"]
        for argv in (["--config", str(cfg)] + command, command + ["--config", str(cfg)]):
            assert invoke(argv) == (2, "", f"usage error: unrecognized arguments: --config {cfg}\n")

    def test_closed_stdout_is_one_line_error(self):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        code = run(["grid", "--alpha", "1/2", "--depth", "2"], ClosedPipe(), err)
        assert code == 2 and err.getvalue() == "error: [Errno 32] Broken pipe\n"

    def test_help_exits_zero(self):
        assert invoke(["--help"]) == (0, USAGE, "")

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_subcommand_help_goes_to_given_stdout(self, command, capsys):
        code, out, err = invoke([command, "-h"])
        assert code == 0 and err == ""
        assert out.startswith(f"usage: pierce-lab {command}")
        assert capsys.readouterr() == ("", "")

    def test_cover_report_fields(self):
        _, out, _ = invoke(
            ["cover", "--alpha", "1/2", "--beta", "1/2", "--eps", "1/10", "--s", "3", "--kmax", "30"]
        )
        (report,) = lines_of(out)
        res = report["results"]
        assert res["verdict"] == "ratio_vanishing"
        assert res["threshold"] == "9/10"
        assert len(res["terms"]) == 30 and len(res["ratios"]) == 29


class TestSharedParser:
    def test_earlier_runs_leave_no_state(self):
        plain = ["eval", "--prefix", "2"]
        _build_parser.cache_clear()
        assert invoke(["expand"])[0] == 2  # usage error
        assert invoke(["expand", "3/2"])[0] == 2  # domain error
        assert invoke([*plain, "--bits", "40"])[0] == 0
        assert invoke([*plain, "--bits", "8"])[0] == 0
        after = invoke(plain)
        _build_parser.cache_clear()
        assert after == invoke(plain)
        assert lines_of(after[1])[0]["provenance"]["precision_bits"] == 64

    def test_parser_built_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        _build_parser.cache_clear()
        assert invoke(["expand", "7/10"])[0] == 0
        first = len(built)
        assert first > 0
        assert invoke(["eval", "--prefix", "2"])[0] == 0
        assert len(built) == first

    def test_csv_rows_numbered_per_envelope(self):
        code, out, _ = invoke(["--format", "csv", "grid", "--alpha", "1/2", "--depth", "2"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert sorted({int(line) for line, _, _ in rows}) == [0, 1, 2, 3, 4]
        kinds = {int(line): json.loads(value) for line, key, value in rows if key == "results.kind"}
        assert kinds == {0: "cell", 1: "cell", 2: "cell", 3: "cell", 4: "summary"}


RATIONALS = ("0", "1/4", "1/2", "3/4", "1")
# Small valid values of each flag, by destination name; only precision and
# sample's --bits share a name, and the table entry tells them apart.
SMALL = {
    "x": st.sampled_from(RATIONALS + ("7/10", "355/1130")),
    "prefix": st.sampled_from(("2", "3,7", "2,9,16")),
    "alpha": st.sampled_from(RATIONALS),
    "beta": st.sampled_from(RATIONALS),
    "eps": st.sampled_from(RATIONALS + ("1/10",)),
    "s": st.sampled_from(RATIONALS + ("3",)),
    "pattern": st.sampled_from(("0", "1", "01", "0110")),
    "offset": st.integers(0, 3),
    "window": st.integers(0, 2000),
    "in": st.sampled_from(("1/3,1/2", "0,1", "1/4,3/4")),
    "j": st.integers(0, 3),
    "terms": st.integers(0, 200),
    "kmax": st.integers(1, 40),
    "N": st.integers(1, 3),
    "depth": st.integers(0, 3),
    "count": st.integers(0, 2),
    "seed": st.integers(0, 2**32),
    "bits": st.integers(256, 512),  # sample's draw width
}
MALFORMED = st.sampled_from(("x", "0.5", "1/0", "", "2,x", "1e3"))


def flag_value(draw, parse, name):
    """None (omitted), a malformed value, one past the guard, or a small valid value."""
    kind = draw(st.sampled_from(("omit", "malformed", "past") + ("valid",) * 7))
    limit = getattr(parse, "limit", None)
    if kind == "omit":
        return None
    if kind == "malformed":
        return draw(MALFORMED)
    if kind == "past" and limit is not None:
        return draw(st.sampled_from((str(limit + 1), "99999999999999999999")))
    if isinstance(parse, tuple):
        return draw(st.sampled_from(parse))
    return str(draw(st.integers(0, 128) if parse is _PRECISION[1] else SMALL[name.lstrip("-")]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(_COMMANDS)))
    argv = draw(st.sampled_from(([], ["--format", "csv"]))) + [command]
    for name, parse, _ in _COMMANDS[command][2]:
        value = flag_value(draw, parse, name)
        if value is not None:
            argv += [name, value] if name.startswith("-") else [value]
    return argv


@given(argvs())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_exits_cleanly(argv):
    code, out, err = invoke(argv)
    assert code in (0, 2, 3, 64), (argv, err)
    if code:
        assert out == "" and err.count("\n") == 1, (argv, err)


# Exponent denominators become odd root degrees: up to 4003 in cover at
# eps = 1/4001, and 1/s = 2001 in divergent.
@given(st.integers(1, 2000).map(lambda i: ["cover", "--alpha", "1/2", "--beta", "1/2",
                                           "--eps", f"1/{2 * i + 1}", "--s", "3"])
       | st.integers(1, 10**6).map(lambda q: ["divergent", "--s", f"1/{q}", "--prefix", "2",
                                               "--j", "1"]),
       st.integers(0, 10))
@settings(max_examples=40, deadline=2000)
def test_fuzzed_root_degrees_finish_within_the_deadline(argv, n):
    argv += ["--kmax", str(1 + n % 3)] if argv[0] == "cover" else ["--terms", str(n)]
    code, _, err = invoke(argv)
    assert code in (0, 3), (argv, err)


# stdout SHA-256 of commands whose roots have degrees up to 16003, 4003 and 2001
ROOT_DEGREE_DIGESTS = {
    "cover --alpha 1/2 --beta 1/2 --eps 1/16001 --s 3 --kmax 3":
        "50ad934796920dc4577792edd256a0e238ecc484e2e0c012e9d786d7bbddd2e2",
    "cover --alpha 1/2 --beta 1/2 --eps 1/4001 --s 3 --kmax 3":
        "03311581bbeb94ec3da2475531477ee3f8595453f4c841489bc54f8b6fd786d8",
    "divergent --s 1/2001 --prefix 2 --j 1 --terms 10":
        "031749809ca9c1f3317e3d52c0e8502840f869c4dae2969a609e35781feaf335",
}


@pytest.mark.parametrize("command", ROOT_DEGREE_DIGESTS)
def test_high_degree_root_commands_print_pinned_bytes(command):
    code, out, _ = invoke(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ROOT_DEGREE_DIGESTS[command]


# stdout SHA-256 of cover at the guard's kmax, where the ledger cuts its
# roots deepest, at the three acceptance points (bytes of the exact ledger)
KMAX_GUARD_DIGESTS = {
    "cover --alpha 1/2 --beta 1/2 --eps 1/10 --s 3 --kmax 512":
        "024a4c2cd941e20b0992bb4885aed6a4f53dc0be55345751001d5383d72e9965",
    "cover --alpha 1 --beta 1 --eps 1/5 --s 4 --kmax 512":
        "cf2459275b1ab75873964990b6aea413393104e1e979b1cec08bb16ded9e5f40",
    "cover --alpha 3/5 --beta 4/5 --eps 1/10 --s 9/2 --kmax 512":
        "0c91dd3efc74bf2a7eb4f43b1e09ceabef92a1618df72eabfe29385f60ac9fef",
}


@pytest.mark.parametrize("command", KMAX_GUARD_DIGESTS)
def test_cover_at_the_kmax_guard_prints_pinned_bytes(command):
    code, out, _ = invoke(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == KMAX_GUARD_DIGESTS[command]


ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# one small invocation per command: eval with and without --rule, divergent with --terms
ENCLOSURE_ARGV = [
    ["expand", "7/10"],
    ["eval", "--prefix", "2,9", "--bits", "8"],
    ["eval", "--prefix", "2", "--rule", "power", "--alpha", "1/2", "--bits", "16"],
    ["lambda", "--rule", "power", "--prefix", "2", "--alpha", "1/2", "--window", "50"],
    ["construct", "--alpha", "1/2", "--in", "1/3,1/2"],
    ["divergent", "--s", "1/2", "--prefix", "2", "--j", "1", "--terms", "5"],
    ["cover", "--alpha", "1/2", "--beta", "3/4", "--eps", "1/10", "--s", "1", "--kmax", "4"],
    ["grid", "--alpha", "1/2", "--depth", "1"],
    ["sample", "--bits", "256", "--count", "2", "--seed", "3"],
]


def test_enclosure_fields_are_those_the_benchmark_oracle_checks(monkeypatch):
    # The printed bytes of an Enclosure and of a pair of Fractions are the same;
    # the handlers' values tell them apart.
    oracles = load_oracles()
    singles = {command: set() for command in _COMMANDS}
    lists = {command: set() for command in _COMMANDS}

    def recording(command, handler):
        def record(args, bits):
            for results in handler(args, bits):
                for key, value in results.items():
                    if isinstance(value, arith.Enclosure):
                        singles[command].add(key)
                    elif isinstance(value, tuple) and value and all(
                            isinstance(v, arith.Enclosure) for v in value):
                        lists[command].add(key)
                yield results
        return record

    for command, (handler, summary, flags) in list(_COMMANDS.items()):
        monkeypatch.setitem(_COMMANDS, command, (recording(command, handler), summary, flags))
    assert sorted({argv[0] for argv in ENCLOSURE_ARGV}) == sorted(_COMMANDS)
    for argv in ENCLOSURE_ARGV:
        code, _, err = invoke(argv)
        assert code == 0, (argv, err)
    for command in _COMMANDS:
        assert singles[command] == set(oracles.ENCLOSURES[command]), command
        assert lists[command] == set(oracles.ENCLOSURE_LISTS.get(command, ())), command
