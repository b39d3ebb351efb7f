"""The benchmark's tracer records nothing for a target it cannot find, so
every traced name must resolve to a function of the library."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACED tuple")


def test_traced_targets_resolve_to_library_functions():
    targets = traced_targets()
    assert targets
    missing = []
    for target in targets:
        module_name, _, attr = target.partition(".")
        module = importlib.import_module(f"mvfuzzy.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(target)
    assert not missing, f"traced targets not found: {missing}"
