import os
import subprocess
import sys

import numpy as np
import pytest

from causal_al.dataio import FeatureTable


@pytest.fixture
def simple_table():
    return FeatureTable(
        row_ids=("a", "b", "c"),
        feature_names=("f1", "f2", "y"),
        values=np.array([[1.0, 4.0, 0.5], [2.0, 5.0, 1.5], [3.0, 6.0, 2.5]]),
        target_names=("y",),
    )


@pytest.fixture
def no_thread_pool(monkeypatch):
    """Starting a thread pool fails the test."""
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


# The 10-node world of the acceptance suite (criteria 04 and 05), also the
# benchmark's `assemble` world
WORLD_NODES = tuple(f"f{i}" for i in range(1, 10)) + ("y",)
WORLD_EDGES = (
    ("f1", "f2", 0.8), ("f1", "f3", 0.6), ("f2", "f4", 0.7), ("f3", "f4", -0.5),
    ("f2", "f5", 0.5), ("f6", "f5", 0.6), ("f6", "f7", -0.7), ("f7", "f8", 0.6),
    ("f4", "y", 0.9), ("f5", "y", -0.7), ("f3", "y", 0.4), ("f8", "y", 0.5),
)

# 1000 copies of either value have a sample standard deviation of about
# 1e-17, not 0, because their mean rounds (ROADMAP H)
ROUNDED_CONSTANTS = (-0.49994593130499265, 0.1)


def make_table(values, feature_names, target_names=(), prefix="r"):
    values = np.asarray(values, dtype=np.float64)
    return FeatureTable(
        row_ids=tuple(f"{prefix}{i}" for i in range(values.shape[0])),
        feature_names=tuple(feature_names),
        values=values,
        target_names=tuple(target_names),
    )


def modules_after(statement: str) -> set[str]:
    """The names in sys.modules after `statement` runs in a fresh interpreter."""
    code = f"import sys; {statement}; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())
