"""The benchmark's tracer wraps piercelab functions by name: every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


# `install` reads the functions of every layer but `rules` with getattr;
# the rule methods it wraps only where a class defines them.
FUNCTIONS = [(layer, name) for layer, names in load_layers().items() if layer != "rules"
             for name in names]


@pytest.mark.parametrize("layer, name", FUNCTIONS)
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"piercelab.{layer}")
    assert callable(getattr(module, name))
