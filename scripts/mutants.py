"""Mutation gate for the certified kernels: each listed mutant must fail its tests.

    python3 scripts/mutants.py [NAME ...]

`MUTANTS` lists, per mutant, a file, a snippet that occurs in it exactly
once, the snippet's replacement and the pytest selection that must fail
on it.  The script copies the working tree's tracked files (a `git stash
create` commit, or HEAD when nothing changed) with `git archive` into a
temporary directory, once per mutant, applies that mutant alone and runs
its selection there with `-x`, PYTHONPATH set to the copy's `src/`.
Before the mutants it runs every selection once on an unmutated copy; a
selection that fails there makes the gate meaningless, and the script
exits 2.  It prints one line per mutant, `killed` or `survived`, and
exits 1 if any mutant without a written `equivalent` reason survived; a
mutant listed with such a reason is expected to survive and is reported
as `equivalent`.  Names given on the command line run those mutants
only.  Stdlib only, and slow enough to stay out of tier-1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

MONOTONE = "tests/test_exponent.py::TestMonotoneTails"
CHUNKED = "tests/test_exponent.py::TestReferenceWindow::test_chunked_window_equals_reference"
PRUNED = "tests/test_exponent.py::TestPrunedWindow"
TAILS = "tests/test_exponent.py::TestTailWindows"
BITS = "tests/test_exponent.py::TestBitPerturbedWindows"
RULES = "tests/test_rules.py"
ARITH = "tests/test_arith.py"
SPACE = "tests/test_space.py"
LEDGER = "tests/test_dimension.py::TestReferenceLedger"
COVER = "tests/test_dimension.py::TestCoveringSum"
REFINED = "tests/test_dimension.py::TestRefinedBound"
UNIT = "tests/test_arith.py::TestUnitRational"
ORBIT = "tests/test_pierce.py::TestReferenceOrbit"
POWER_SUM = "tests/test_exponent.py::test_power_sum_equals_the_per_term_reference"
SAMPLE = "tests/test_pierce.py::test_integer_entry_equals_the_enclosure_entry"
SAFE_EXACT = "tests/test_pierce.py::TestSafeDigits::test_exact"
DIGESTS = "tests/test_readme_digests.py"
ENCLOSURE_FIELDS = "tests/test_cli.py::test_enclosure_fields_are_those_the_benchmark_oracle_checks"
WITNESSES = "tests/test_constructions.py::TestWitnesses"
ENUMERATION = "tests/test_dimension.py::TestEnumeration"
CONFIG = "tests/test_cli.py::TestFormatsAndConfig::test_config_is_a_usage_error"
USAGE_ERRORS = "tests/test_cli.py::TestMalformedInput::test_usage_error_is_one_line"
RULE_EXPANSION = "tests/test_space.py::TestRuleExpansion"
UNREDUCED_MIDPOINT = ("tests/test_space.py::TestLocateCylinder::"
                      "test_unreduced_midpoint_against_its_digits")
CANONICAL_LINES = "tests/test_cli.py::TestReportWriter::test_lines_are_canonical_json"

# name -> (file, old snippet, new snippet, pytest selection, equivalent-mutant reason or None)
MUTANTS = {
    "ceiling-numerator": (
        "src/piercelab/exponent.py", "num, den = n_lo + 2, d_lo - (sigma_k or sigma)",
        "num, den = n_lo + 1, d_lo - (sigma_k or sigma)", [MONOTONE], None),
    "ceiling-without-sigma": (
        "src/piercelab/exponent.py", "num, den = n_lo + 2, d_lo - (sigma_k or sigma)",
        "num, den = n_lo + 2, d_lo", [MONOTONE], None),
    "increase-unchecked": (
        "src/piercelab/exponent.py",
        "if (t < 0 or c < 0) and a * (first if t > 0 else k) * t + c * scaled < 0:",
        "if False:",
        [MONOTONE], None),
    "ceiling-unchecked-at-p-1": (
        "src/piercelab/exponent.py", "    if p:\n        scaled", "    if p > 1:\n        scaled",
        [MONOTONE], None),
    "falling-slack-increase-unchecked": (
        "src/piercelab/exponent.py", "(LOG2_SCALE + 2 * sigma)", "LOG2_SCALE", [MONOTONE], None),
    "affine-slope-1": (
        "src/piercelab/exponent.py", "c < 0) and a * (", "c < 0) and (", [MONOTONE], None),
    "affine-increase-at-k-only": (
        "src/piercelab/exponent.py", "(first if t > 0 else k) * t", "k * t", [MONOTONE], None),
    "affine-shortcut-without-c": (
        "src/piercelab/exponent.py", "(t < 0 or c < 0)", "t < 0", [MONOTONE], None),
    "affine-increase-without-c": (
        "src/piercelab/exponent.py", "else k) * t + c * scaled < 0", "else k) * t < 0",
        [MONOTONE], None),
    "falling-slack-without-1": (
        "src/piercelab/exponent.py", "sigma_k = 1 - (-K // (values[0] - 1))",
        "sigma_k = -(-K // (values[0] - 1))", [MONOTONE], None),
    "slack-without-floor-term": (
        "src/piercelab/exponent.py",
        "sigma = 1 - (-K // (seq.rule.term(first) - 1))", "sigma = 1", [MONOTONE], None),
    "slack-from-last-base": (
        "src/piercelab/exponent.py", "seq.rule.term(first)", "seq.rule.term(hi)",
        [MONOTONE], None),
    "slack-past-2**18": (
        "src/piercelab/exponent.py", "(slope * hi + shift >= _EXACT_LOG_BASE_BOUND",
        "(slope * hi + shift >= 1 << 32", [CHUNKED, MONOTONE], None),
    "constant-q-shift-0": (
        "src/piercelab/exponent.py", "(slope > 1 or shift > 0 if p else first >= 3)",
        "(slope > 1 or shift >= 0 if p else first >= 3)", [CHUNKED], None),
    "tower-from-2": (
        "src/piercelab/exponent.py", "(slope > 1 or shift > 0 if p else first >= 3)",
        "(slope > 1 or shift > 0 if p else first >= 2)", [CHUNKED], None),
    "tower-top-down": (
        "src/piercelab/exponent.py",
        "_runs(first, hi, 8, p > 0)):",
        "_runs(first, hi, 8, True)):",
        [CHUNKED, MONOTONE], None),
    "bit-perturbed-tail-base": (
        "src/piercelab/rules.py", "return len(self.bits), 2, -1", "return len(self.bits), 2, 0",
        [CHUNKED, BITS], None),
    "merged-bases-inside-step-1": (
        "src/piercelab/exponent.py", "bases[len(range(o, n, slope)):]", "bases[len(range(o, n)):]",
        [CHUNKED, BITS], None),
    "operands-without-guard": (
        "src/piercelab/rules.py", "(_floor_power(b, p, q), 1, 1)",
        "(integer_root(b**q, p), 1, 1)", [RULES], None),
    "seam-base": (
        "src/piercelab/rules.py", "else 1) - len(self.prefix)\n",
        "else 1) - len(self.prefix) - 1\n", [RULES], None),
    "log2-step-without-tail": (
        "src/piercelab/arith.py", "return acc_lo, acc_hi + 2", "return acc_lo, acc_hi",
        [ARITH], None),
    "log2-step-tail-1": (
        "src/piercelab/arith.py", "return acc_lo, acc_hi + 2", "return acc_lo, acc_hi + 1",
        [ARITH],
        "every input within the step's contract, at any width w < 1200 and at the wider "
        "_log2_floor anchors 1569 and 3105, still has its floor bracketed with + 1 (the "
        "proof and decimal check of the log-run change in CHANGES.md); + 2 holds for every "
        "w without reading the digits of 1/ln 2"),
    "anchor-cap": (
        "src/piercelab/arith.py", "((e + s + 1) << w) - 1)", "(e + s + 1) << w)",
        [ARITH], None),
    "root-plain-start": (
        "src/piercelab/arith.py", "    s = -(-m.bit_length() // p) // 2\n",
        "    bits = -(-m.bit_length() // p)\n    if bits <= 128:\n"
        "        return _newton_root(m, p, 1 << bits)\n    s = bits // 2\n", [ARITH], None),
    "doubling-root-start": (
        "src/piercelab/arith.py", "integer_root(m >> p * s, p) + 1 << s",
        "integer_root(m >> p * s, p) << s", [ARITH], None),
    "float-start-without-down-step": (
        "src/piercelab/arith.py", "        while x**p > m:\n            x -= 1\n", "",
        [ARITH], None),
    "float-start-without-up-step": (
        "src/piercelab/arith.py", "        while (x + 1) ** p <= m:\n            x += 1\n", "",
        [ARITH], None),
    "narrow-root-by-newton": (
        "src/piercelab/arith.py", "_FLOAT_ROOT_BITS = 48", "_FLOAT_ROOT_BITS = 0",
        [ARITH], None),
    "prune-bit-length-minus-1": (
        "src/piercelab/exponent.py", "tops, [l - 1 for l in tops], a * scale, b)",
        "tops, tops, a * scale, b)",
        [PRUNED], None),
    "prune-strict": (
        "src/piercelab/exponent.py", "n_hi * u >= t * bottom", "n_hi * u > t * bottom",
        [PRUNED, MONOTONE, TAILS],
        "an index kept only by the tie n_hi/bottom == t/u has both ratios at most t/u, which "
        "is at most the window's lower maximum, reached by the kept index t/u came from or "
        "by a/b; so dropping it moves neither maximum (nor the clamp: t/u >= 1 means some "
        "kept index is clamped already)"),
    "bracket-without-slack": (
        "src/piercelab/exponent.py", "bottoms = [q * x - p + 1 + K + -K * b**q // f**p",
        "bottoms = [q * x", [MONOTONE], None),
    "bracket-slack-without-1": (
        "src/piercelab/exponent.py", "bottoms = [q * x - p + 1", "bottoms = [q * x + 1",
        [MONOTONE], None),
    "remainder-bracket-floor": (
        "src/piercelab/exponent.py", "K + -K * b**q // f**p", "K - K * b**q // f**p",
        [MONOTONE], None),
    "bracket-top-without-p": (
        "src/piercelab/exponent.py", "tops = [q * y + p for y in base_hi]",
        "tops = [q * y for y in base_hi]", [MONOTONE], None),
    "frontier-from-base-hi": (
        "src/piercelab/exponent.py", "d_lo = q * base_lo[i] // p", "d_lo = q * base_hi[i] // p",
        [MONOTONE], None),
    "base-slice-off-by-one": (
        "src/piercelab/exponent.py", "lows[-n:], highs[-n:]", "lows[-n - 1:-1], highs[-n - 1:-1]",
        [CHUNKED, MONOTONE, TAILS], None),
    "merged-base-slice-off-by-one": (
        "src/piercelab/exponent.py", "lows[o:n:slope] + lows[n:]",
        "lows[o:n:slope] + lows[n - 1:-1]", [CHUNKED, BITS], None),
    "locate-cell-left-end": (
        "src/piercelab/space.py",
        "k, q = _cell(s, product, d, depth)\n        if a * q <= k * c",
        "k, q = _cell(s, product, d, depth)\n        if a * q < k * c",
        [SPACE], None),
    "locate-child-jump-shift": (
        "src/piercelab/space.py", "for d in (first, first + 1):",
        "for d in (first + 1, first + 2):", [SPACE], None),
    "locate-room-halved": (
        "src/piercelab/space.py", "-(-2 * c // (product * (b - a)))",
        "-(-c // (product * (b - a)))", [UNREDUCED_MIDPOINT], None),
    "expansion-parity-swap": (
        "src/piercelab/space.py", "if sign > 0 else", "if sign < 0 else", [RULE_EXPANSION], None),
    "witness-container-unchecked": (
        "src/piercelab/constructions.py",
        "if not self.container.contains_interval(self.enclosure):", "if False:",
        [WITNESSES], None),
    "enumeration-floor-strict": (
        "src/piercelab/dimension.py", "if v >= floors[j - 1]:", "if v > floors[j - 1]:",
        [ENUMERATION], None),
    "outward-lower-ceiling": (
        "src/piercelab/dimension.py", "outward(t_lo >> guard, -(-t_hi >> guard))",
        "outward(-(-t_lo >> guard), -(-t_hi >> guard))", [LEDGER], None),
    "outward-upper-floor": (
        "src/piercelab/dimension.py", "outward(t_lo >> guard, -(-t_hi >> guard))",
        "outward(t_lo >> guard, t_hi >> guard)", [LEDGER], None),
    "ledger-guard-1": (
        "src/piercelab/dimension.py", "guard, one = 32, 1 << bits", "guard, one = 1, 1 << bits",
        [LEDGER], None),
    "bracket-upper-tight": (
        "src/piercelab/arith.py", "return r, r + (d < t), t - d,", "return r, r, t - d,",
        [ARITH], None),
    "ledger-takes-undecided": (
        "src/piercelab/dimension.py", "return sign * q if q == hi // d_lo else None",
        "return sign * q", [LEDGER], None),
    "verdict-tail-at-least-2": (
        "src/piercelab/dimension.py", "fractions[-max(1, len(fractions) // 4)]",
        "fractions[-max(2, len(fractions) // 4)]", [COVER], None),
    "verdict-tail-fifth": (
        "src/piercelab/dimension.py", "len(fractions) // 4", "len(fractions) // 5", [COVER], None),
    "verdict-last-ratio": (
        "src/piercelab/dimension.py", "fractions[-max(1, len(fractions) // 4)]", "fractions[-1]",
        [COVER], None),
    "verdict-floor-at-most-1": (
        "src/piercelab/dimension.py", "if floor == 0:", "if floor <= 1:", [COVER], None),
    "cover-exact-never": (
        "src/piercelab/arith.py", "integer_root(base, v) ** v == base", "False",
        [LEDGER], None),
    "refined-bound-last-piece": (
        "src/piercelab/dimension.py", "return (alpha + delta) * (1 / alpha - 1)",
        "return beta * (1 / (beta - delta) - 1)", [REFINED], None),
    "unit-rational-open-top": (
        "src/piercelab/arith.py", "0 <= x.numerator <= x.denominator",
        "0 <= x.numerator < x.denominator", [UNIT], None),
    "orbit-pad-off-by-one": (
        "src/piercelab/pierce.py", "[Fraction(0)] * (n - len(orbit))",
        "[Fraction(0)] * (n - len(orbit) + 1)", [ORBIT], None),
    "power-sum-shortcut-any-v": (
        "src/piercelab/exponent.py", "if u == 1 and v % q == 0:", "if u == 1 and v > 0:",
        [POWER_SUM], None),
    "power-sum-shortcut-without-p": (
        "src/piercelab/exponent.py", "n ** (v // q * p)", "n ** (v // q)", [POWER_SUM], None),
    "power-sum-pairs-unreduced": (
        "src/piercelab/exponent.py", "g = gcd(num, den)", "g = 1", [POWER_SUM], None),
    "power-sum-shared-inexact": (
        "src/piercelab/exponent.py", "if b == e and lo == hi:", "if lo == hi:", [POWER_SUM], None),
    "safe-run-ambiguity-strict": (
        "src/piercelab/pierce.py", "if b >= a:", "if b > a:", [SAMPLE], None),
    "point-next-upper-end": (
        "src/piercelab/pierce.py", "# a point stays a point\n            b = r\n",
        "# a point stays a point\n            b = r + 1\n", [SAFE_EXACT], None),
    "report-enclosure-hi-lo": (
        "src/piercelab/cli.py", "[rational_str(value.lo), rational_str(value.hi)]",
        "[rational_str(value.hi), rational_str(value.lo)]",
        [DIGESTS], None),
    "report-params-keep-none": (
        "src/piercelab/cli.py", "if (value := getattr(args, name)) is not None}",
        "if (value := getattr(args, name)) is not None or True}", [DIGESTS], None),
    "eval-echo-without-bits": (
        "src/piercelab/cli.py", '"eval": ("prefix", "rule", "alpha", "bits"),',
        '"eval": ("prefix", "rule", "alpha"),', [DIGESTS], None),
    "eval-interval-plain-pair": (
        "src/piercelab/cli.py", "Enclosure(cell.left, cell.right)", "(cell.left, cell.right)",
        [ENCLOSURE_FIELDS], None),
    "report-head-spaced": (
        "src/piercelab/cli.py", """[:-1] + ',"results":'""", """[:-1] + ', "results":'""",
        [CANONICAL_LINES], None),
    "argv-stray-tokens-kept": (
        "src/piercelab/cli.py", "    if stray:\n", "    if False:\n", [CONFIG], None),
    "argv-required-flag-unchecked": (
        "src/piercelab/cli.py", "if given[name] is REQUIRED:", "if False:", [USAGE_ERRORS], None),
    "argv-choice-unchecked": (
        "src/piercelab/cli.py", "and given[name] not in parse:", "and False:", [USAGE_ERRORS],
        None),
}


def snapshot() -> str:
    """The commit whose tree is copied: the working tree's tracked state."""
    out = subprocess.run(["git", "stash", "create"], cwd=REPO, capture_output=True,
                         text=True, check=True).stdout.strip()
    return out or "HEAD"


def copy_tree(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_tests(tree: str, selection: list) -> int:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def mutate(tree: str, path: str, old: str, new: str) -> None:
    target = Path(tree, path)
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        sys.exit(f"{path}: snippet occurs {text.count(old)} times, not once: {old!r}")
    target.write_text(text.replace(old, new), encoding="utf-8")


def main(names: list) -> int:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    rev = snapshot()
    with tempfile.TemporaryDirectory() as tree:
        copy_tree(rev, tree)
        for selection in {tuple(entry[3]) for entry in chosen.values()}:
            if run_tests(tree, list(selection)) != 0:
                print(f"unmutated tree fails {' '.join(selection)}")
                return 2
    survivors = 0
    for name, (path, old, new, selection, reason) in chosen.items():
        with tempfile.TemporaryDirectory() as tree:
            copy_tree(rev, tree)
            mutate(tree, path, old, new)
            killed = run_tests(tree, selection) != 0
        if killed:
            verdict = "killed"
        elif reason:
            verdict = f"equivalent: {reason}"
        else:
            verdict = "survived"
            survivors += 1
        print(f"{name:<24} {verdict}", flush=True)
    print(f"{len(chosen)} mutants, {survivors} surviving")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
