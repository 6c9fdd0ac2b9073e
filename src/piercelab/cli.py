"""Batch command-line front end with machine-readable reports.

Every command prints report envelopes as single-line JSON (or flattened
CSV) on stdout: {command, params, results, provenance}.  Numeric
payloads are exact rational strings "p/q" or two-element enclosures
["p/q", "p/q"], never floats, so identical invocations produce
byte-identical output.  Sweep commands stream one envelope per item
plus a final summary envelope.

Exit codes: 0 success, 2 domain error or bad arguments, 3 guard
exceeded (a number too long to print included), 64 unknown subcommand.
"""

from __future__ import annotations

import io
import json
import re
import sys
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, TextIO

from . import __version__
from .arith import (
    MAX_DIGITS,
    TEN_TO_MAX_DIGITS,
    DomainError,
    Enclosure,
    GuardExceededError,
    rational_str,
)
from .constructions import divergent_tail_rule, witness_in_interval
from .dimension import (
    CoverParams,
    covering_sum,
    grid_witness_sweep,
    sample_digit_statistics,
)
from .exponent import (
    classify_divergence,
    estimate_exponent,
    reciprocal_power_sum,
)
from .pierce import digits_rational, shift_orbit, validate_prefix
from .rules import BitPerturbedRule, LinearRule, PowerFloorRule
from .space import (
    DEFAULT_PRECISION_BITS,
    PierceSeq,
    dual_representation,
    expansion_value,
    fundamental_interval,
)

__all__ = ["main", "run", "REPORT_SCHEMA"]

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "pierce-lab report envelope",
    "type": "object",
    "required": ["command", "params", "results", "provenance"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "results": {"type": "object"},
        "provenance": {
            "type": "object",
            "required": ["version", "seed", "precision_bits"],
            "properties": {
                "version": {"type": "string"},
                "seed": {"type": ["integer", "null"]},
                "precision_bits": {"type": "integer"},
            },
        },
    },
    "additionalProperties": False,
}


# A rational numeral; an integer numeral is one without "/q".  ASCII digits only.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _integer(limit: Optional[int] = None, what: str = ""):
    """Parse function of an integer flag; a value past `limit` is refused (exit 3)."""

    def parse(text) -> int:
        numeral = _RATIONAL.fullmatch(text.strip())
        if not numeral or numeral[1]:
            raise DomainError(f"cannot parse integer {text!r}")
        if len(text) > MAX_DIGITS and sum(map(str.isdecimal, text)) > MAX_DIGITS:
            raise DomainError(f"a numeral of more than {MAX_DIGITS} digits")
        value = int(text)
        if limit is not None and value > limit:
            raise GuardExceededError(f"{what} {value} exceeds the guard {limit}")
        return value

    parse.limit = limit
    return parse


_parse_int = _integer()  # a prefix digit, or a part of a rational


def parse_rational(text: str) -> Fraction:
    """An exact rational written "n" or "p/q"; decimals are refused."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise DomainError(f"cannot parse rational {text!r}: expected n or p/q")
    try:
        return Fraction(*map(_parse_int, text.split("/")))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from exc


def parse_interval(text: str) -> Enclosure:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"interval must be 'lo,hi', got {text!r}")
    return Enclosure(parse_rational(parts[0]), parse_rational(parts[1]))


def parse_prefix(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return validate_prefix(tuple(map(_parse_int, text.split(","))))


def parse_pattern(text: str) -> tuple[int, ...]:
    if not set(text) <= {"0", "1"}:
        raise DomainError(f"cannot parse pattern {text!r}")
    return tuple(map(int, text))


def _json_value(value):
    """json.dumps's default: a rational prints "p/q", an enclosure [lo, hi], an enum its value."""
    if isinstance(value, Enclosure):  # the most frequent value, and formatted here in full
        return [rational_str(value.lo), rational_str(value.hi)]
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"{type(value).__name__} is not a report value")


def _flatten(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _flatten(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(node)


# --rule family -> (flags it reads, flags it requires, constructor); eval
# without a rule reads --prefix.
_RULES = {
    None: (("prefix",), (), None),
    "power": (("prefix", "alpha"), ("alpha",), lambda a: PowerFloorRule(a.prefix or (), a.alpha)),
    "tower": (("prefix",), (), lambda a: PowerFloorRule(a.prefix or (), 0)),
    "linear": (("offset",), (), lambda a: LinearRule(a.offset or 0)),
    "binary": (("alpha", "pattern"), ("alpha", "pattern"),
               lambda a: BitPerturbedRule(a.alpha, a.pattern)),
}


def _build_rule(args):
    """The rule of eval's or lambda's --rule (None without one), refusing unread flags."""
    reads, requires, build = _RULES[args.rule]
    for flag in ("prefix", "alpha", "pattern", "offset"):
        if getattr(args, flag, None) is not None and flag not in reads:
            family = f"--rule {args.rule}" if args.rule else "no --rule"
            raise DomainError(f"{args.command} with {family} does not read --{flag}")
    if any(getattr(args, flag) is None for flag in requires):
        flags = " and ".join(f"--{flag}" for flag in requires)
        raise DomainError(f"--rule {args.rule} requires {flags}")
    return build(args) if build else None


def _cmd_expand(args, bits: int):
    x = args.x
    digits = digits_rational(x)
    yield {
        "digits": digits,
        "tau": dual_representation(x)[1] if 0 < x < 1 else None,
        "orbit": shift_orbit(x, len(digits)),
    }


def _cmd_eval(args, bits: int):
    rule = _build_rule(args)
    if rule is not None:
        results = {"rule": rule.describe(),
                   "value": expansion_value(PierceSeq.infinite(rule), bits)}
    else:
        results = {"value": expansion_value(PierceSeq.finite(args.prefix), bits)}
    if args.prefix:
        cell = fundamental_interval(args.prefix)
        results["interval"] = Enclosure(cell.left, cell.right)
        results["diameter"] = cell.diameter
    yield results


def _cmd_lambda(args, bits: int):
    rule = _build_rule(args)
    estimate = estimate_exponent(PierceSeq.infinite(rule), args.window)
    yield {
        "rule": rule.describe(),
        "window": (estimate.window_lo, estimate.window_hi),
        "sup": estimate.sup,
        "sup_value": estimate.sup_value,
        "window_certifies": estimate.certified,
        "certificate": rule.certificate,
    }


def _cmd_construct(args, bits: int):
    witness = witness_in_interval(getattr(args, "in"), args.alpha, bits)  # "in" is a keyword
    yield {
        "rule": witness.rule.describe(),
        "enclosure": witness.enclosure,
        "certificate": witness.certificate,
        "container": witness.container,
    }


def _cmd_divergent(args, bits: int):
    rule = divergent_tail_rule(args.prefix, args.s, args.j)
    first_terms = rule.terms(12)  # increasing: the one report integer no input or guard bounds
    if first_terms[-1] >= TEN_TO_MAX_DIGITS:
        raise GuardExceededError(f"report number too long to print: more than {MAX_DIGITS} digits")
    results = {
        "rule": rule.describe(),
        "first_terms": first_terms,
        "verdict": classify_divergence(rule, args.s),
    }
    if args.terms is not None:
        partial = reciprocal_power_sum(PierceSeq.infinite(rule), args.s, args.terms, bits)
        results["partial_sum"] = partial.sum
        results["n_terms"] = partial.n_terms
    yield results


def _cmd_cover(args, bits: int):
    report = covering_sum(CoverParams(N=args.N, alpha=args.alpha, beta=args.beta,
                                      epsilon=args.eps, s=args.s, k_max=args.kmax), bits)
    yield {
        "threshold": report.threshold,
        "verdict": report.verdict,
        "k_range": (report.ks[0], report.ks[-1]),
        "terms": report.terms,
        "ratios": report.ratios,
        "partial_sums": report.partial_sums,
    }


def _cmd_grid(args, bits: int):
    report = grid_witness_sweep(args.alpha, args.depth, bits)
    for cell in report.cells:
        yield {
            "kind": "cell",
            "index": cell.index,
            "cell": cell.cell,
            "prefix": cell.witness.rule.prefix,
            "enclosure": cell.witness.enclosure,
            "certificate": cell.witness.certificate,
        }
    yield {"kind": "summary", "cells": len(report.cells), "all_witnessed": report.all_witnessed}


def _cmd_sample(args, bits: int):
    report = sample_digit_statistics(args.bits, args.count, args.seed)
    for rec in report.samples:
        yield {
            "kind": "sample",
            "index": rec.index,
            "depth": rec.depth,
            "status": rec.status,
            "log_ratio": rec.log_ratio,
            "window": rec.window,
        }
    yield {
        "kind": "summary",
        "algorithm": report.algorithm,
        "median_log_ratio": report.median_log_ratio,
        "median_depth": report.median_depth,
    }


REQUIRED = object()  # the default of a flag that must be given

# The enclosure precision; a command without this entry reports the default.
_PRECISION = ("--bits", _integer(4096, "precision bits"), DEFAULT_PRECISION_BITS)
_FORMAT = ("--format", ("json", "csv"), "json")  # the one option before the command

# command -> (handler, USAGE summary, flags).  A flag is (name, parse, default),
# positional without dashes; a tuple parse lists the accepted choices.
_COMMANDS = {
    "expand": (_cmd_expand, "digit sequence, dual representation, and shift orbit of p/q", (
        ("x", parse_rational, REQUIRED),
    )),
    "eval": (_cmd_eval, "expansion value and fundamental interval of a digit prefix", (
        ("--prefix", parse_prefix, REQUIRED),
        ("--rule", ("power", "tower"), None),
        ("--alpha", parse_rational, None),
        _PRECISION,
    )),
    "lambda": (_cmd_lambda, "exponent window diagnostic and certificate for a digit rule", (
        ("--rule", ("power", "tower", "linear", "binary"), REQUIRED),
        ("--prefix", parse_prefix, None),
        ("--alpha", parse_rational, None),
        ("--pattern", parse_pattern, None),
        ("--offset", _integer(), None),
        ("--window", _integer(1_000_000, "window"), REQUIRED),
    )),
    "construct": (_cmd_construct, "certified-exponent witness inside an interval", (
        ("--alpha", parse_rational, REQUIRED),
        ("--in", parse_interval, REQUIRED),
        _PRECISION,
    )),
    "divergent": (_cmd_divergent, "divergent-tail rule and its reciprocal power sums", (
        ("--s", parse_rational, REQUIRED),
        ("--prefix", parse_prefix, REQUIRED),
        ("--j", _integer(), REQUIRED),
        ("--terms", _integer(10_000, "terms"), None),
        _PRECISION,
    )),
    "cover": (_cmd_cover, "covering-series term/ratio ledger and verdict", (
        ("--alpha", parse_rational, REQUIRED),
        ("--beta", parse_rational, REQUIRED),
        ("--eps", parse_rational, REQUIRED),
        ("--s", parse_rational, REQUIRED),
        ("--kmax", _integer(), REQUIRED),
        ("--N", _integer(), 1),
        _PRECISION,
    )),
    "grid": (_cmd_grid, "witness sweep over all dyadic cells of a given depth", (
        ("--alpha", parse_rational, REQUIRED),
        ("--depth", _integer(), REQUIRED),
        _PRECISION,
    )),
    "sample": (_cmd_sample, "seeded Monte Carlo digit statistics", (
        ("--bits", _integer(65_536, "sample bits"), REQUIRED),
        ("--count", _integer(5_000, "sample count"), REQUIRED),
        ("--seed", _integer(), REQUIRED),
    )),
}

# command -> the parsed flags its reports echo as params; run leaves out those that are None.
_ECHOED = {
    "expand": ("x",),
    "eval": ("prefix", "rule", "alpha", "bits"),
    "lambda": ("rule", "window"),
    "construct": ("alpha", "in", "bits"),
    "divergent": ("s", "prefix", "j"),
    "cover": ("N", "alpha", "beta", "eps", "s", "kmax"),
    "grid": ("alpha", "depth", "bits"),
    "sample": ("bits", "count", "seed"),
}

USAGE = "usage: pierce-lab [--format json|csv] COMMAND ...\n\ncommands:\n" + "".join(
    f"  {name:<10} {summary}\n" for name, (_, summary, _) in _COMMANDS.items()
)


def _usage(command: str, flags) -> str:
    """The line `pierce-lab COMMAND --help` prints, written from the command's flags."""
    words = []
    for name, parse, default in flags:
        value = "{" + ",".join(parse) + "}" if isinstance(parse, tuple) else name[2:].upper()
        word = f"{name} {value}" if name.startswith("-") else name
        words.append(word if default is REQUIRED else f"[{word}]")
    return f"usage: pierce-lab {command} {' '.join(words)}\n"


def _read(tokens, flags) -> dict:
    """The text of each flag in `tokens`, else its default, by name without dashes.

    A flag is its full name, then its value (the last one given counts); a
    positional does not start with "--".  Other tokens raise ValueError."""
    given = {name: default for name, _, default in flags}
    names = {name for name in given if name.startswith("-")}
    positionals = [name for name in given if name not in names]
    stray = []
    tokens = iter(tokens)
    for token in tokens:
        if token in names:
            given[token] = next(tokens, None)
            if given[token] is None or given[token] in names:
                raise ValueError(f"argument {token}: expected one argument")
        elif positionals and not token.startswith("--"):
            given[positionals.pop()] = token
        else:
            stray.append(token)
    if stray:
        raise ValueError(f"unrecognized arguments: {' '.join(stray)}")
    for name, parse, default in flags:
        if given[name] is REQUIRED:
            raise ValueError(f"the following arguments are required: {name}")
        if isinstance(parse, tuple) and given[name] is not default and given[name] not in parse:
            raise ValueError(f"argument {name}: invalid choice: {given[name]!r} "
                             f"(choose from {', '.join(parse)})")
    return {name.lstrip("-"): value for name, value in given.items()}


def run(argv, stdout: TextIO, stderr: TextIO) -> int:
    argv = list(argv)
    command = next((i for i, a in enumerate(argv) if a in _COMMANDS), None)
    if {"-h", "--help"} & set(argv[:command]):  # before the command, or with none
        print(USAGE, file=stdout, end="")
        return 0
    if command is None:
        attempted = next((a for a in argv if not a.startswith("-")), "(none)")
        print(f"unknown subcommand: {attempted}", file=stderr)
        print(USAGE, file=stderr, end="")
        return 64
    handler, _, flags = _COMMANDS[argv[command]]
    if {"-h", "--help"} & set(argv[command:]):
        print(_usage(argv[command], flags), file=stdout, end="")
        return 0
    try:
        top, values = _read(argv[:command], (_FORMAT,)), _read(argv[command + 1:], flags)
    except ValueError as exc:
        print(f"usage error: {exc}", file=stderr)
        return 2
    try:
        # after the whole command line is read, so a malformed value is a domain error
        for name, parse, _ in flags:
            dest = name.lstrip("-")
            if isinstance(values[dest], str) and callable(parse):
                values[dest] = parse(values[dest])
        args = SimpleNamespace(command=argv[command], **top, **values)
        bits = args.bits if _PRECISION in flags else DEFAULT_PRECISION_BITS
        if bits < 0:
            raise DomainError(f"precision must be non-negative, got {bits} bits")
        seed = getattr(args, "seed", None)
        provenance = {"version": __version__, "seed": seed, "precision_bits": bits}
        params = {name: value for name in _ECHOED[args.command]
                  if (value := getattr(args, name)) is not None}
        # report values hold no cycles; the check would cost a dict entry per value
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json_value,
                                  check_circular=False).encode
        for line, results in enumerate(handler(args, bits)):
            try:  # a host process may set the interpreter's own digit limit lower
                if not line:  # sorted keys put results last; encoded after the handler's errors
                    head = encode({"command": args.command, "params": params,
                                   "provenance": provenance})[:-1] + ',"results":'
                text = head + encode(results) + "}\n"
                if args.format == "csv":
                    import csv  # imported here: only --format csv needs it
                    buf = io.StringIO()
                    csv.writer(buf, lineterminator="\n").writerows(
                        [line, path, value] for path, value in _flatten(json.loads(text))
                    )
                    text = buf.getvalue()
            except ValueError as exc:
                raise GuardExceededError(f"report number too long to print: {exc}") from exc
            stdout.write(text)
        return 0
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=stderr)
        return 2


def main(argv: Optional[list[str]] = None) -> int:
    getattr(sys, "set_int_max_str_digits", lambda n: None)(0)  # MAX_DIGITS decides alone
    if argv is None:
        argv = sys.argv[1:]
    return run(argv, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
