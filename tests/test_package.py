import importlib
import types

import piercelab

MODULES = ("arith", "pierce", "rules", "space", "exponent", "constructions", "dimension")


def test_top_level_names_are_the_module_lists():
    modules = [importlib.import_module(f"piercelab.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))  # no name in two lists
    public = {
        name for name, value in vars(piercelab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(piercelab, name) is getattr(module, name), name
