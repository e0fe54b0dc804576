"""What `import causal_al` loads, and the library names the benchmark wraps."""

import ast
import importlib
from pathlib import Path

import pytest

from tests.conftest import modules_after

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
