import ast
import importlib
import re
import types
from pathlib import Path

import piercelab

MODULES = ("arith", "pierce", "rules", "space", "exponent", "constructions", "dimension")
ROOT = Path(__file__).resolve().parent.parent

# Public names that the code of no other module of src/, no README line and no
# perfbench script uses, each with the reason it stays public.
KEPT = {
    "ln2_enclosure": "the certified ln 2 under every log enclosure",
    "SafeDigits": "return type of safe_digits",
    "SIGMA_ZERO": "the all-infinite sequence, the empty prefix",
    "FundamentalInterval": "return type of fundamental_interval",
    "cylinder_contains": "membership in the paper's cylinder sets",
    "seq_distance": "the paper's metric",
    "Verdict": "return type of classify_divergence",
    "ExponentEstimate": "return type of estimate_exponent and estimate_point_exponent",
    "PowerSumPartial": "return type of reciprocal_power_sum",
    "estimate_point_exponent": "λ at a point given as an enclosure",
    "CoverVerdict": "verdict type of covering_sum",
    "CoverReport": "return type of covering_sum",
    "enumerate_digit_tuples": "the exact count that binomial_tuple_bound bounds",
    "binomial_tuple_bound": "the paper's count of digit tuples under the cap",
    "refined_dimension_bound": "the paper's dimension bound over a refined partition",
    "SampleRecord": "record type of sample_digit_statistics",
    "McReport": "return type of sample_digit_statistics",
    "GridCell": "record type of grid_witness_sweep",
    "GridReport": "return type of grid_witness_sweep",
}


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


def identifiers(source: str) -> set[str]:
    """The names, attributes and imported names that a module's code uses, not its prose."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unused_names(public: dict, sources: dict, outside: list) -> set:
    """The names of public[module] that no other module's code and no outside text uses.

    The outside texts (README, perfbench scripts) match by whole word, as
    the benchmark's tracer names functions in strings.
    """
    codes = {stem: identifiers(text) for stem, text in sources.items()}
    unused = set()
    for module, names in public.items():
        for name in names:
            word = re.compile(rf"\b{name}\b")
            in_code = any(name in code for stem, code in codes.items() if stem != module)
            if not in_code and not any(word.search(text) for text in outside):
                unused.add(name)
    return unused


def test_every_public_name_without_a_user_has_a_reason():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "piercelab").glob("*.py")}
    outside = [(ROOT / "README.md").read_text()]
    outside += [path.read_text() for path in (ROOT / "perfbench").glob("*.py")]
    public = {module: importlib.import_module(f"piercelab.{module}").__all__ for module in MODULES}
    assert unused_names(public, sources, outside) == set(KEPT)


def test_a_name_only_in_prose_has_no_user():
    sources = {
        "a": "def verdict():\n    return 1\n",
        "b": '"""verdict: a docstring bullet."""\n# verdict in a comment\nx = "verdict"\n',
    }
    assert unused_names({"a": ["verdict"]}, sources, []) == {"verdict"}
    for use in ("from .a import verdict\n", "import piercelab.a as a\ny = a.verdict\n",
                "verdict()\n"):
        assert unused_names({"a": ["verdict"]}, {**sources, "b": sources["b"] + use}, []) == set()
    assert unused_names({"a": ["verdict"]}, sources, ["run `verdict` first"]) == set()
