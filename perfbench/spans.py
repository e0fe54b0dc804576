"""In-memory timing spans and integer counters for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into
each `causal_al` layer: a wrapper is installed where the caller looks the
name up (a module attribute), and removed again when the traced
repetition ends. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list


class Tracer:
    """Nested spans (name, start, end, parent) plus deterministic counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.peaks_mb: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += int(n)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of spans, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, selfs):
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += s.end - s.start
        t["self_s"] += self_s
    return totals


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _before_discover(tr: Tracer, args, kwargs) -> None:
    # counted before the call, so a call that raises still has its rows
    table = args[0] if args else kwargs["table"]
    tr.count("causal.discover_lingam.rows", table.n_rows)


def _on_loop(tr: Tracer, args, kwargs, run) -> None:
    losses = [v for rec in run.records for v in rec.losses]
    tr.count("active.candidates", len(losses))
    tr.count("active.candidates_inf", sum(v == float("inf") for v in losses))
    for rec in run.records:
        tr.count(f"active.selections.{run.mode}.{rec.chosen}")


def _tree_nodes(node) -> int:
    n, stack = 0, [node]
    while stack:
        nd = stack.pop()
        n += 1
        if nd.feature >= 0:
            stack.extend((nd.left, nd.right))
    return n


def _on_forest(tr: Tracer, args, kwargs, model) -> None:
    tr.count("regress.tree_nodes", sum(_tree_nodes(t) for t in model.trees))


def _on_knn(tr: Tracer, args, kwargs, result) -> None:
    queries = args[0] if args else kwargs["intervened"]
    reference = args[1] if len(args) > 1 else kwargs["reference"]
    evals = queries.n_rows * reference.n_rows
    tr.count("match.distance_evals", evals)
    # float64 distance matrix as computed, Q x R x 8 B; not a measured byte count
    tr.count("match.distance_bytes_computed", evals * 8)


def _on_plans(tr: Tracer, args, kwargs, plans) -> None:
    tr.count("intervene.plans", len(plans))
    tr.count("intervene.plans_clamped", sum(p.clamped for p in plans))


def _on_gmm(tr: Tracer, args, kwargs, model) -> None:
    tr.count("cluster.em_iters", len(model.log_likelihoods))


# (module, attribute, span name, hook before the call, hook on the result).
# A name that two callers look up in different modules gets one wrapper
# around the same original.
PATCHES = (
    ("causal_al.causal", "discover_lingam", "causal.discover_lingam", _before_discover, None),
    ("causal_al.active", "discover_lingam", "causal.discover_lingam", _before_discover, None),
    ("causal_al.active", "spectral_distance", "graphdist.spectral_distance", None, None),
    ("causal_al.active", "FeatureTable", "dataio.FeatureTable", None, None),
    ("causal_al.active", "active_learn", "active.active_learn", None, _on_loop),
    ("causal_al.active", "random_baseline", "active.random_baseline", None, _on_loop),
    ("causal_al.regress", "fit_forest", "regress.fit_forest", None, _on_forest),
    ("causal_al.regress", "r2", "regress.r2", None, None),
    ("causal_al.match", "nearest_in_reference", "match.nearest_in_reference", None, _on_knn),
    ("causal_al.match", "intervention_report", "match.intervention_report", None, None),
    ("causal_al.match", "pca_project", "match.pca_project", None, None),
    ("causal_al.intervene", "plan_interventions", "intervene.plan_interventions", None, _on_plans),
    ("causal_al.intervene", "apply_interventions", "intervene.apply_interventions", None, None),
    ("causal_al.cluster", "fit_gmm", "cluster.fit_gmm", None, _on_gmm),
    ("causal_al.dataio", "load_feature_table", "dataio.load_feature_table", None, None),
    ("causal_al.dataio", "save_feature_table", "dataio.save_feature_table", None, None),
)

# Layers whose peak traced allocation (tracemalloc) is recorded inside the call.
PEAK_LAYERS = ("match.nearest_in_reference",)


def _wrap(tr: Tracer, name: str, fn, before, after):
    measure_peak = name in PEAK_LAYERS

    def wrapper(*args, **kwargs):
        if before is not None:
            before(tr, args, kwargs)
        with tr.span(name):
            if measure_peak:
                tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tr.peaks_mb[name] = max(tr.peaks_mb.get(name, 0.0), peak / 2**20)
            else:
                result = fn(*args, **kwargs)
        if after is not None:
            after(tr, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(tr: Tracer):
    """Install the timing wrappers of PATCHES, then restore the originals."""
    saved = []
    wrappers: dict[int, object] = {}
    try:
        for mod_name, attr, name, before, after in PATCHES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = _wrap(tr, name, original, before, after)
            saved.append((mod, attr, original))
            setattr(mod, attr, wrappers[id(original)])
        yield tr
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
