"""Per-layer tracing from outside the program.

`install` wraps the public functions listed in LAYERS and rebinds every
piercelab module namespace that holds one of them (``from .arith import
log2_enclosure`` binds the name in `rules`, `exponent` and `dimension`
too), plus the `term`/`log2_term` methods of every rule class.  Each
wrapper is a span: it counts the call and adds its self time, which is its
duration minus the time covered by the spans it encloses.  Spans are
aggregated per function as they close, so memory stays flat however many
calls a session makes.  The wrappers' own bookkeeping is excluded from the
enclosing span's self time.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# Layer (package module) -> public functions wrapped in that layer.
LAYERS = {
    "arith": ("floor_reciprocal", "log2_enclosure", "ln_enclosure",
              "pow_enclosure", "integer_root"),
    "pierce": ("digits_rational", "digit_step", "safe_digits", "shift_orbit"),
    "space": ("expansion_value", "fundamental_interval", "dual_representation",
              "locate_cylinder"),
    "rules": ("term", "log2_term"),  # methods, aggregated over rule classes
    "exponent": ("estimate_exponent", "exponent_window", "growth_ratio",
                 "reciprocal_power_sum"),
    "constructions": ("witness_in_interval",),
    "dimension": ("covering_sum", "grid_witness_sweep", "sample_digit_statistics"),
    "cli": ("run",),
}

COUNTERS = ("pierce.digits_out", "exponent.indices_scanned",
            "dimension.cover_terms", "cli.bytes_out")


def _indices(args) -> int:
    """Indices exponent_window(seq, lo, hi) scans: lo..hi, lo >= 2, within finite digits."""
    seq, lo, hi = args[:3]
    lo = max(lo, 2)
    if seq.is_finite:
        hi = min(hi, seq.depth)
    return max(0, hi - lo + 1)


# Spans whose arguments or result feed a work counter.
OBSERVED = {"pierce.digits_rational", "pierce.safe_digits", "exponent.exponent_window",
            "dimension.covering_sum", "cli.run", "arith.log2_enclosure"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.top_digits = 0  # digits returned to the benchmark's own calls
        self.log2_args = set()
        self._stack = []  # per open span: time covered by its child spans

    def _observe(self, name: str, args, kwargs, result, top: bool) -> None:
        if name in ("pierce.digits_rational", "pierce.safe_digits"):
            digits = result if name == "pierce.digits_rational" else result.prefix
            self.counters["pierce.digits_out"] += len(digits)
            if top:
                self.top_digits += len(digits)
        elif name == "exponent.exponent_window":
            self.counters["exponent.indices_scanned"] += _indices(args)
        elif name == "dimension.covering_sum":
            self.counters["dimension.cover_terms"] += len(result.terms)
        elif name == "cli.run":
            self.counters["cli.bytes_out"] += len(args[1].getvalue().encode())
        elif name == "arith.log2_enclosure":
            self.log2_args.add((args, tuple(sorted(kwargs.items()))))

    def wrap(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        observed = name in OBSERVED

        def span(*args, **kwargs):
            start = perf_counter()
            stack.append(0.0)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                duration = perf_counter() - start
                self_s[name] += duration - stack.pop()
                calls[name] += 1
                if returned and observed:
                    self._observe(name, args, kwargs, result, not stack)
                if stack:  # the enclosing span excludes this one and its bookkeeping
                    stack[-1] += perf_counter() - start

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        return span

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "top_digits": self.top_digits,
            "log2_distinct": len(self.log2_args),
        }


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "piercelab" or name.startswith("piercelab.")]


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in LAYERS in place; return names left unwrapped."""
    wrappers = {}
    for layer, names in LAYERS.items():
        if layer == "rules":
            continue
        module = importlib.import_module(f"piercelab.{layer}")
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    rules = importlib.import_module("piercelab.rules")
    for cls in vars(rules).values():
        if isinstance(cls, type) and issubclass(cls, rules.DigitRule):
            for method in LAYERS["rules"]:
                if method in vars(cls):
                    setattr(cls, method, tracer.wrap(f"rules.{method}", vars(cls)[method]))

    originals = {id(fn) for fn, _ in wrappers.values()}
    return sorted(
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType) and id(value) in originals
    )


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values by name, from a Tracer.report()."""
    out = {}
    for layer, names in LAYERS.items():
        layer_self = 0.0
        for name in names:
            key = f"{layer}.{name}"
            self_s = trace["self_s"].get(key, 0.0)
            layer_self += self_s
            out[f"{key}.calls"] = trace["calls"].get(key, 0)
            out[f"{key}.self_s"] = self_s
        out[f"{layer}.self_s"] = layer_self
    for name in COUNTERS:
        out[name] = trace["counters"].get(name, 0)
    calls = trace["calls"].get("arith.log2_enclosure", 0)
    out["arith.log2_enclosure.repeat_frac"] = (
        1 - trace["log2_distinct"] / calls if calls else 0.0)
    return out
