"""Static check of the demo scripts and the benchmark against the package API.

The demos are not run here (some take a minute); each is parsed instead, and
every name it imports from beamlab must exist, and every keyword it passes to
an imported function must be a parameter of that function.  The benchmark's
workloads are checked the same way, including calls made through an imported
module (``recon.recover_vm(...)``), and every layer its tracer wraps must
resolve in the package; the tracer is installed and uninstalled on the live
package, and each workload's set-up runs.  Every module's ``__all__`` must
name only what the module defines.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import beamlab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCHMARKS = ROOT / "benchmarks"


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


def _callee(func, names):
    """``(label, object)`` of a call to an imported name or to an attribute
    of an imported module; ``None`` for any other call."""
    if isinstance(func, ast.Name) and func.id in names:
        return func.id, names[func.id]
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and inspect.ismodule(names.get(func.value.id))):
        label = f"{func.value.id}.{func.attr}"
        return label, getattr(names[func.value.id], func.attr, None)
    return None


def _bad_calls(path):
    """Unknown imports, attributes and keywords in the calls of a script."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, bad = _imported(tree)
    for node in ast.walk(tree):
        hit = _callee(node.func, names) if isinstance(node, ast.Call) else None
        if hit is None:
            continue
        label, obj = hit
        if obj is None:
            bad.append(f"{label} (line {node.lineno}) does not exist")
            continue
        params = inspect.signature(obj).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        bad += [f"{label}({kw.arg}=) at line {node.lineno}"
                for kw in node.keywords
                if kw.arg is not None and kw.arg not in params]
    return bad


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_calls_match_signatures(demo):
    bad = _bad_calls(demo)
    assert not bad, f"{demo.name} calls unknown names or keywords: {bad}"


def test_benchmark_workload_calls_match_signatures():
    bad = _bad_calls(BENCHMARKS / "workloads.py")
    assert not bad, f"workloads.py calls unknown names or keywords: {bad}"


def test_benchmark_tracer_layers_resolve():
    tree = ast.parse((BENCHMARKS / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS"
                          for t in node.targets))
    assert layers
    missing = []
    for name, modname, attr in layers:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{name}: {modname}.{attr}")
    assert not missing, f"traced layers missing from the package: {missing}"


def test_exported_names_resolve():
    # a stale __all__ entry otherwise fails only on a star import
    modules = [importlib.import_module(info.name) for info in
               pkgutil.iter_modules(beamlab.__path__, "beamlab.")]
    assert any(hasattr(mod, "__all__") for mod in modules)
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not stale, f"__all__ entries missing from their modules: {stale}"


def _layer(modname, attr):
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_benchmark_tracer_installs_and_workloads_set_up():
    # the tracer wraps every layer and puts every original back, and each
    # workload builds its inputs against the package as it is
    sys.path.insert(0, str(BENCHMARKS))
    try:
        tracer = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
        before = [_layer(mod, attr) for _, mod, attr in tracer.LAYERS]
        tr = tracer.Tracer()
        try:
            tr.install()
            during = [_layer(mod, attr) for _, mod, attr in tracer.LAYERS]
        finally:
            tr.uninstall()
        after = [_layer(mod, attr) for _, mod, attr in tracer.LAYERS]
        assert all(d is not b for d, b in zip(during, before))
        assert all(a is b for a, b in zip(after, before))
        for setup, _, _, _ in workloads.WORKLOADS.values():
            setup()
    finally:
        sys.path.remove(str(BENCHMARKS))
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
