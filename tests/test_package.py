"""What `import causal_al` loads, and the library names the benchmark uses."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from tests.conftest import modules_after

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_package_import_loads_no_submodule():
    loaded = modules_after("import causal_al")
    assert {m for m in loaded if m.startswith("causal_al")} == {"causal_al"}


def _perfbench_patches():
    """The (module, attr) pairs of `PATCHES` in perfbench/spans.py, read without running it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    value = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "PATCHES" for t in node.targets)
    )
    return [(entry.elts[0].value, entry.elts[1].value) for entry in value.elts]


@pytest.mark.parametrize("module, attr", _perfbench_patches())
def test_every_traced_benchmark_layer_resolves(module, attr):
    # the traced benchmark run wraps these module attributes; deleting or
    # renaming one breaks it
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def _parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _library_imports():
    """(file, module, name) of each `from causal_al... import name` in perfbench/*.py.

    Imports inside functions count too: `checks.plan_problems` imports only
    when a `match` run checks its plans.
    """
    return [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(_parsed(path))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "causal_al"
        for alias in node.names
    ]


def _resolve(dotted):
    """The object `dotted` names, importing submodules as `from ... import` does."""
    root, *attrs = dotted.split(".")
    obj = importlib.import_module(root)
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            obj = importlib.import_module(f"{obj.__name__}.{attr}")
    return obj


@pytest.mark.parametrize("file, module, name", _library_imports())
def test_every_name_the_benchmark_imports_resolves(file, module, name):
    try:
        _resolve(f"{module}.{name}")
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{file}: from {module} import {name}: {exc}")


def _dotted(expr):
    """`a.b.c` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    return ".".join([expr.id, *reversed(parts)]) if isinstance(expr, ast.Name) else None


def _library_calls():
    """(line, function, positional count, keywords) of each causal_al call in workloads.py.

    A call names its function through a name imported from causal_al, or
    through a loop variable over a tuple of such names (the two active loops).
    """
    tree = _parsed(WORKLOADS)
    imported = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "causal_al"
        for alias in node.names
    }
    loops = {
        node.target.id: [_dotted(e) for e in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Tuple)
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        for local in loops.get(name, [name]):
            root, _, rest = (local or "").partition(".")
            if root in imported:
                n_args = sum(not isinstance(a, ast.Starred) for a in node.args)
                keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
                calls.append((node.lineno, ".".join(filter(None, [imported[root], rest])),
                              n_args, keywords))
    return calls


@pytest.mark.parametrize("line, function, n_args, keywords", _library_calls())
def test_every_library_call_of_the_benchmark_binds(line, function, n_args, keywords):
    # the inert `jobs=1` keywords among them: removing `jobs` from a
    # signature fails here, not first in a benchmark run
    signature = inspect.signature(_resolve(function))
    try:
        signature.bind_partial(*[None] * n_args, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"workloads.py:{line}: {function}: {exc}")
