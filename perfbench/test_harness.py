"""Tests of the benchmark harness itself: span arithmetic and the checks.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402
from causal_al import match  # noqa: E402
from causal_al.dataio import FeatureTable  # noqa: E402


def test_self_time_subtracts_children_once():
    # rep [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and c [8, 12]
    # (clipped to 10); a has a child a1 [2, 3].
    spans = [
        Span("rep", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),
        Span("c", 8.0, 12.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])
    totals = layer_totals(spans + [Span("a", 6.5, 7.0, 0)])
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == pytest.approx(3.5)
    assert totals["rep"]["self_s"] == pytest.approx(10 - 7.5)


def test_tracer_nests_spans_and_counts():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            tr.count("work", 3)
        tr.count("work")
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", None), ("inner", 0)]
    assert tr.counters["work"] == 4
    outer, inner = self_times(tr.spans)
    assert outer + inner == pytest.approx(tr.spans[0].end - tr.spans[0].start)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run._tail([1.0] * 10) is None
    p, value = run._tail([float(i) for i in range(20)])
    assert p == 50.0 and value == 9.0


@pytest.fixture
def knn_case():
    rng = np.random.default_rng(5)
    names = ("f1", "f2", "f3")
    queries = FeatureTable(tuple(f"q{i}" for i in range(20)), names, rng.normal(size=(20, 3)))
    reference = FeatureTable(tuple(f"r{i}" for i in range(200)), names + ("y",),
                             rng.normal(size=(200, 4)), target_names=("y",))
    neighbors = match.nearest_in_reference(queries, reference, k=3, ref_target="y")
    return queries, reference, neighbors


def test_match_oracle_accepts_correct_neighbours(knn_case):
    queries, reference, neighbors = knn_case
    assert checks.knn_disagreements(queries, reference, neighbors, range(20), 3, "y") == []


def test_match_oracle_rejects_perturbed_neighbour_list(knn_case):
    queries, reference, neighbors = knn_case
    nr = neighbors[7]
    swapped = nr.neighbor_ids[1:2] + nr.neighbor_ids[:1] + nr.neighbor_ids[2:]
    bad = list(neighbors)
    bad[7] = match.NeighborResult(nr.query_id, swapped, nr.distances, nr.ref_targets)
    nr4 = neighbors[4]
    bad[4] = match.NeighborResult(
        nr4.query_id, nr4.neighbor_ids, (nr4.distances[0] + 1e-9,) + nr4.distances[1:],
        nr4.ref_targets)
    assert checks.knn_disagreements(queries, reference, bad, range(20), 3, "y") == [4, 7]


def test_pipeline_check_flags_nonzero_stage_exit():
    ok = {"cluster": 0, "discover": 0}
    digests = [{"subsets.csv": "aa"}, {"subsets.csv": "aa"}]
    assert checks.pipeline_problems([ok, ok], digests) == []
    problems = checks.pipeline_problems([ok, {"cluster": 0, "discover": 4}], digests)
    assert problems == ["repetition 1: stage discover exited 4"]


def test_pipeline_check_flags_changed_artifact():
    ok = {"cluster": 0}
    problems = checks.pipeline_problems(
        [ok, ok], [{"a.csv": "1", "b.csv": "2"}, {"a.csv": "1", "b.csv": "3"}])
    assert problems == ["repetition 1: artifacts differ from repetition 0: ['b.csv']"]


def test_assemble_check_flags_choice_that_is_not_the_minimum():
    from causal_al.active import ActiveLearningRun, IterationRecord

    subset_ids = [{"a0", "a1"}, {"b0", "b1"}]
    records = (
        IterationRecord(0, (0.5, 0.2), 1, 0.2, 1),
        IterationRecord(1, (0.1, 0.3), 1, 0.3, 2),
    )
    run_ = ActiveLearningRun("active", 0, 1, 2, 2, ("b0", "b1"), records)
    assert checks.loop_problems(run_, subset_ids, m=1, n_iter=2) == [
        "active run: iteration 1 did not commit the first minimum"]


def test_stage_lists_agree():
    import workloads

    assert run.PIPELINE_STAGES == workloads.STAGES
