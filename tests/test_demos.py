"""Static check of the demo scripts against the package API.

The demos are not run here (some take a minute); each is parsed instead, and
every name it imports from beamlab must exist, and every keyword it passes to
an imported function must be a parameter of that function.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _imported(tree):
    """Names a script imports from beamlab, mapped to their objects."""
    names = {}
    missing = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "beamlab"):
            continue
        mod = importlib.import_module(node.module)
        for alias in node.names:
            if hasattr(mod, alias.name):
                names[alias.asname or alias.name] = getattr(mod, alias.name)
            else:
                missing.append(f"{node.module}.{alias.name} "
                               f"(line {node.lineno})")
    return names, missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_calls_match_signatures(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    names, missing = _imported(tree)
    assert not missing, f"{demo.name} imports missing names: {missing}"
    bad = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in names):
            continue
        params = inspect.signature(names[node.func.id]).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        bad += [f"{node.func.id}({kw.arg}=) at line {node.lineno}"
                for kw in node.keywords
                if kw.arg is not None and kw.arg not in params]
    assert not bad, f"{demo.name} passes unknown keywords: {bad}"
