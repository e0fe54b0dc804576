import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_al import match
from causal_al.dataio import FingerprintTable
from causal_al.errors import (
    ConfigError,
    DisjointFeatures,
    InsufficientData,
    MissingColumn,
    SchemaError,
)
from causal_al.intervene import InterventionPlan
from causal_al.match import (
    NeighborResult,
    intervention_report,
    nearest_in_reference,
    pca_project,
    tanimoto,
)
from tests.conftest import ROUNDED_CONSTANTS, make_table


def brute_force_knn(zq, zr, k):
    """Independent oracle: per-query scan with pure-python distance math."""
    out = []
    for q in zq:
        dists = []
        for j, r in enumerate(zr):
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(q, r)))
            dists.append((d, j))
        dists.sort()
        out.append(dists[:k])
    return out


# ---------------------------------------------------------------------------
# k-NN
# ---------------------------------------------------------------------------


def test_exact_copy_matches_at_distance_zero():
    rng = np.random.default_rng(0)
    ref_vals = rng.normal(size=(10, 3))
    queries = make_table(ref_vals[[4, 7]], ("a", "b", "c"), prefix="q")
    reference = make_table(ref_vals, ("a", "b", "c"), prefix="ref")
    results = nearest_in_reference(queries, reference, k=1)
    assert results[0].neighbor_ids == ("ref4",)
    assert results[0].distances[0] == 0.0
    assert results[1].neighbor_ids == ("ref7",)


def test_knn_agrees_with_pure_python_oracle():
    rng = np.random.default_rng(7)
    q = make_table(rng.normal(size=(5, 4)), ("a", "b", "c", "d"), prefix="q")
    r = make_table(rng.normal(size=(20, 4)), ("a", "b", "c", "d"), prefix="ref")
    results = nearest_in_reference(q, r, k=3)
    # mirror the implementation's normalization, then brute-force
    mean = q.values.mean(axis=0)
    std = q.values.std(axis=0, ddof=1)
    zq = (q.values - mean) / std
    zr = (r.values - mean) / std
    expected = brute_force_knn(zq.tolist(), zr.tolist(), 3)
    for res, exp in zip(results, expected):
        assert res.neighbor_ids == tuple(f"ref{j}" for _, j in exp)
        for got, (want, _) in zip(res.distances, exp):
            assert got == pytest.approx(want, abs=1e-12)


def test_k_clamped_to_reference_size():
    rng = np.random.default_rng(1)
    q = make_table(rng.normal(size=(2, 2)), ("a", "b"), prefix="q")
    r = make_table(rng.normal(size=(4, 2)), ("a", "b"), prefix="ref")
    results = nearest_in_reference(q, r, k=10)
    assert all(len(res.neighbor_ids) == 4 for res in results)
    for res in results:
        assert list(res.distances) == sorted(res.distances)


def test_k_must_be_positive():
    t = make_table([[1.0]], ("a",))
    with pytest.raises(ConfigError):
        nearest_in_reference(t, t, k=0)


def test_disjoint_features_rejected():
    q = make_table([[1.0], [2.0]], ("a",), prefix="q")
    r = make_table([[1.0], [2.0]], ("b",), prefix="ref")
    with pytest.raises(DisjointFeatures):
        nearest_in_reference(q, r, k=1)


def test_normalization_uses_intervened_population():
    # spread in `a` is 100x smaller among the queries than in the
    # reference pool, so query-population stats stretch that axis hard:
    # the flat-in-a reference wins (pooled stats would prefer flat-in-b)
    q = make_table([[0.0, 0.0], [0.1, 10.0]], ("a", "b"), prefix="q")
    r = make_table([[0.1, 0.0], [0.0, 9.0], [50.0, 0.0], [-50.0, 5.0]], ("a", "b"), prefix="ref")
    by_query = nearest_in_reference(q, r, k=1)
    assert by_query[0].neighbor_ids == ("ref1",)


def test_ref_targets_attached():
    q = make_table([[1.0, 5.0], [8.0, 0.0]], ("a", "y"), target_names=("y",), prefix="q")
    r = make_table([[1.0, 2.5], [9.0, 7.5]], ("a", "y"), target_names=("y",), prefix="ref")
    res = nearest_in_reference(q, r, k=2, ref_target="y")[0]  # matched on `a` alone
    assert res.ref_targets == (2.5, 7.5)


def test_constant_intervened_column_takes_reference_scale():
    # a clamped single-lever batch can leave a column constant; matching
    # must stay defined, scaled by the reference spread instead
    q = make_table([[5.0, 0.0], [5.0, 1.0]], ("a", "b"), prefix="q")
    r = make_table([[5.0, 0.5], [7.0, 0.5], [3.0, 0.2]], ("a", "b"), prefix="ref")
    res = nearest_in_reference(q, r, k=3)
    assert res[0].neighbor_ids[0] == "ref0"  # same `a`, nearest `b`
    assert all(np.isfinite(d) for nr in res for d in nr.distances)


@pytest.mark.parametrize("a", [
    [1.5e308] * 3,  # the query mean of `a` overflows to inf
    [1e300, 0.0, 1e300],  # its mean is finite, its sample std overflows to inf
])
def test_column_not_finite_after_normalization_is_refused_by_name(a):
    # the queries used to be ranked at NaN distances in the first case; in
    # the second, dividing by the infinite spread zeroed `a` without a word
    q = make_table(np.column_stack([a, [0.0, 1.0, 2.0]]), ("a", "b"), prefix="q")
    r = make_table([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], ("a", "b"))
    with pytest.raises(SchemaError, match="^column 'a' is not finite after normalization$"):
        nearest_in_reference(q, r, k=2)


@pytest.mark.xfail(strict=True, reason="ROADMAP H")
def test_rounded_constant_query_column_takes_reference_scale():
    rng = np.random.default_rng(21)
    r = rng.normal(size=(2000, 2))
    ref = make_table(r, ("a", "b"), prefix="ref")
    for value in ROUNDED_CONSTANTS:
        q = np.column_stack([np.full(1000, value), rng.normal(size=1000)])
        top1 = [nr.neighbor_ids[0] for nr in nearest_in_reference(make_table(q, ("a", "b")), ref)]
        # oracle: column a scaled by the reference's spread
        mean = q.mean(axis=0)
        std = np.array([r[:, 0].std(ddof=1), q[:, 1].std(ddof=1)])
        zq, zr = (q - mean) / std, (r - mean) / std
        d = np.subtract.outer(zq[:, 0], zr[:, 0]) ** 2 + np.subtract.outer(zq[:, 1], zr[:, 1]) ** 2
        assert top1 == [f"ref{j}" for j in np.argmin(d, axis=1)]
        assert len(set(top1)) > 10  # not every query on one row


def test_tie_breaks_toward_earlier_reference_row():
    q = make_table([[0.0, 0.0], [4.0, 4.0]], ("a", "b"), prefix="q")
    dup = make_table([[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]], ("a", "b"), prefix="ref")
    res = nearest_in_reference(q, dup, k=2)[0]
    assert res.neighbor_ids == ("ref0", "ref1")
    assert res.distances[0] == res.distances[1]


def sequential_distances(q, r):
    """Scalar reference: per row pair, sqrt of a left-to-right sum of squares.

    Normalization mirrors the implementation (query-population statistics).
    """
    mean = q.values.mean(axis=0)
    std = q.values.std(axis=0, ddof=1)
    zq = ((q.values - mean) / std).tolist()
    zr = ((r.values - mean) / std).tolist()
    out = []
    for a in zq:
        row = []
        for b in zr:
            total = 0.0
            for x, y in zip(a, b):
                diff = x - y
                total += diff * diff
            row.append(math.sqrt(total))
        out.append(row)
    return out


def duplicated_world(seed=4, n_q=9, n_base=30, d=12):
    """Random rows plus exact copies of reference rows 3 and 8, so distances tie."""
    rng = np.random.default_rng(seed)
    names = tuple(f"f{j}" for j in range(d))
    base = rng.normal(size=(n_base, d))
    ref_vals = np.vstack([base, base[[3, 8, 3]]])
    q_vals = np.vstack([base[[3, 8]], rng.normal(size=(n_q - 2, d))])
    return make_table(q_vals, names, prefix="q"), make_table(ref_vals, names, prefix="ref")


def test_knn_distances_bit_equal_to_sequential_sum():
    # 12 features: a pairwise (numpy `sum`) reduction would round differently
    q, r = duplicated_world()
    results = nearest_in_reference(q, r, k=6)
    for res, dists in zip(results, sequential_distances(q, r)):
        ranked = sorted(range(len(dists)), key=lambda j: (dists[j], j))[:6]
        assert res.neighbor_ids == tuple(f"ref{j}" for j in ranked)
        assert res.distances == tuple(dists[j] for j in ranked)
    # query 0 copies reference row 3, which rows 30 and 32 duplicate
    assert results[0].neighbor_ids[:3] == ("ref3", "ref30", "ref32")
    assert results[0].distances[:3] == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("block", [1, 2 * 33, 1 << 40])  # 33 reference rows
def test_knn_invariant_to_block_size(monkeypatch, block):
    q, r = duplicated_world()
    want = nearest_in_reference(q, r, k=5)
    monkeypatch.setattr(match, "_BLOCK_DISTANCES", block)
    assert nearest_in_reference(q, r, k=5) == want


@pytest.mark.parametrize("block", [None, 7, 14])
def test_duplicate_rows_tie_across_block_edges_and_at_kth_place(monkeypatch, block):
    # ref0/ref4 sit on the query, ref1/ref3/ref5 share the next distance;
    # with one or two query rows per block the copies of [0, 0] land in
    # different blocks and k=3 cuts the second tie group after its first row
    if block is not None:
        monkeypatch.setattr(match, "_BLOCK_DISTANCES", block)
    ref = make_table(
        [[0, 0], [1, 0], [5, 5], [1, 0], [0, 0], [1, 0], [9, 1]], ("a", "b"), prefix="ref")
    q = make_table([[0, 0], [9, 1], [0, 0], [9, 1], [0, 0]], ("a", "b"), prefix="q")
    results = nearest_in_reference(q, ref, k=3)
    for res in results[0::2]:
        assert res.neighbor_ids == ("ref0", "ref4", "ref1")
        assert res.distances[:2] == (0.0, 0.0)
        assert res.distances[2] == results[0].distances[2] > 0.0
    assert results[1].neighbor_ids == results[3].neighbor_ids
    assert results[1].distances == results[3].distances
    four = nearest_in_reference(q, ref, k=4)[0]
    assert four.neighbor_ids == ("ref0", "ref4", "ref1", "ref3")


@pytest.mark.parametrize("k", [33, 34, 100])
def test_k_at_or_above_reference_size_ranks_every_row(k):
    q, r = duplicated_world()
    for res, dists in zip(nearest_in_reference(q, r, k=k), sequential_distances(q, r)):
        ranked = sorted(range(r.n_rows), key=lambda j: (dists[j], j))
        assert res.neighbor_ids == tuple(f"ref{j}" for j in ranked)


def test_knn_jobs_do_not_change_results(monkeypatch):
    monkeypatch.setattr(match, "_BLOCK_DISTANCES", 2 * 33)  # two query rows per block
    q, r = duplicated_world()
    assert nearest_in_reference(q, r, k=4, jobs=2) == nearest_in_reference(q, r, k=4, jobs=1)


def test_knn_peak_memory_bounded_at_reference_scale():
    rng = np.random.default_rng(11)
    names = tuple(f"f{j}" for j in range(9))
    q = make_table(rng.normal(size=(1000, 9)), names, prefix="q")
    r = make_table(rng.normal(size=(20_000, 9)), names, prefix="ref")
    tracemalloc.start()
    try:
        results = nearest_in_reference(q, r, k=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 1000
    # the full 1000 x 20 000 float64 distance matrix alone would be 153 MiB
    assert peak < 40 * 2**20


# ---------------------------------------------------------------------------
# k-NN from a sampled threshold (16 k reference rows or more), against the
# full scan it replaced
# ---------------------------------------------------------------------------


def full_scan_top_k(zq, zr, k):
    """The full-matrix kernel as it was before the sampled filter, frozen:
    every query x reference distance as a sequential column-order sum,
    rooted, then a partition of each whole row."""
    zr_cols = np.ascontiguousarray(zr.T)
    d = np.subtract.outer(zq[:, 0], zr_cols[0])
    d *= d
    diff = np.empty_like(d)
    for j in range(1, zr_cols.shape[0]):
        np.subtract.outer(zq[:, j], zr_cols[j], out=diff)
        diff *= diff
        d += diff
    np.sqrt(d, out=d)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(d <= kth)
    vals = d[rows, cols]
    order = np.lexsort((cols, vals, rows))
    starts = np.searchsorted(rows, np.arange(d.shape[0]))
    pick = order[starts[:, None] + np.arange(k)]
    return cols[pick], vals[pick]


def assert_knn_is_the_full_scan(zq, zr, k):
    with np.errstate(over="ignore", invalid="ignore"):
        want_ids, want_dists = full_scan_top_k(zq, zr, k)
        ids, dists = match._knn(zq, zr, k)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(dists.view(np.int64), want_dists.view(np.int64))  # bit for bit
    return ids, dists


def _normal(rng):
    return rng.normal(size=(40, 9)), rng.normal(size=(1200, 9))


def _duplicated(rng):
    q, r = _normal(rng)
    r = np.vstack([r, r[::7], r[::11]])
    return np.vstack([q, r[[3, 14, 21]]]), r  # rows 14 and 21 repeat in r[::7]


def _integer_grid(rng):
    # every distance is the root of a small integer, so ties are everywhere
    return (rng.integers(-2, 3, size=(40, 3)).astype(float),
            rng.integers(-2, 3, size=(1200, 3)).astype(float))


def _column_offset(rng):
    # ||q||^2 + ||r||^2 - 2 q.r cancels about 1e16 down to about 10
    q, r = _normal(rng)
    q[:, 4] += 1e8
    r[:, 4] += 1e8
    return q, r


def _offset_grid(rng):
    # tied integer distances, each the small difference of terms near 1e16
    q, r = _integer_grid(rng)
    return q + 1e8, r + 1e8


def _h_scale_column(rng):
    # a rounded constant query column divides the reference's by about 1e-14
    q, r = _normal(rng)
    r[:, 3] *= 1.08e14
    return q, r


def _reference_outlier(rng):
    q, r = _normal(rng)
    r[17] = 1e12
    return q, r


def _huge_columns(rng):
    q, r = _normal(rng)
    q[:, 2] *= 1e150
    r[:, 2] *= 1e150
    r[:, 5] *= 1e200
    return q, r


@pytest.mark.parametrize("k", [1, 5, 16])
@pytest.mark.parametrize("world", [
    _normal, _duplicated, _integer_grid, _column_offset, _offset_grid, _h_scale_column,
    _reference_outlier, _huge_columns,
])
def test_sampled_knn_is_the_full_scan_bit_for_bit(world, k):
    zq, zr = world(np.random.default_rng(5))
    assert zr.shape[0] >= match._SAMPLE_STRIDE * k  # the sampled path, not stride 1
    assert_knn_is_the_full_scan(zq, zr, k)


def test_sampled_knn_ranks_duplicated_rows_by_index():
    zq, zr = _duplicated(np.random.default_rng(5))
    ids, dists = assert_knn_is_the_full_scan(zq, zr, 3)
    # reference row 21 is repeated as row 1200 + 21 / 7 = 1203
    assert ids[-1][:2].tolist() == [21, 1203]
    assert dists[-1][:2].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("n_r", [79, 80, 81])  # the stride turns 16 at 16 k = 80 rows
def test_sampled_knn_at_the_stride_boundary_and_at_k_equal_to_the_reference_size(n_r):
    zq, zr = _integer_grid(np.random.default_rng(6))
    zr = zr[:n_r]
    assert_knn_is_the_full_scan(zq, zr, 5)
    assert_knn_is_the_full_scan(zq, zr, n_r)


def test_query_whose_every_distance_overflows_ranks_references_0_to_k_minus_1_at_inf():
    # for the second query q.r overflows to +inf as ||r||^2 does, so the
    # expanded form is inf - inf: a filter that trusted it would keep no
    # reference for that query
    zr = np.full((200, 3), 1e308) * (1 - 1e-3 * np.arange(200))[:, None]
    zq = np.array([[-0.7, -0.7, -0.7], [0.7, 0.7, 0.7]])
    ids, dists = assert_knn_is_the_full_scan(zq, zr, 5)
    assert ids.tolist() == [[0, 1, 2, 3, 4]] * 2
    assert np.isinf(dists).all()


def test_sampled_knn_through_the_tables_at_any_block_size_and_jobs(monkeypatch):
    rng = np.random.default_rng(8)
    names = tuple(f"f{j}" for j in range(4))
    grid = rng.integers(-2, 3, size=(30 + 900, 4)).astype(float)
    q = make_table(grid[:30], names, prefix="q")
    r = make_table(grid[30:], names, prefix="ref")
    want = nearest_in_reference(q, r, k=6)
    for block in (1, 7 * 900, 1 << 40):
        monkeypatch.setattr(match, "_BLOCK_DISTANCES", block)
        assert nearest_in_reference(q, r, k=6, jobs=2) == want
    for res, dists in zip(want, sequential_distances(q, r)):
        ranked = sorted(range(r.n_rows), key=lambda j: (dists[j], j))[:6]
        assert res.neighbor_ids == tuple(f"ref{j}" for j in ranked)
        assert res.distances == tuple(dists[j] for j in ranked)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 40), st.integers(1, 5), st.integers(-6, 14),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_sampled_knn_on_drawn_tables(k, extra, d, scale, coarse, seed):
    rng = np.random.default_rng(seed)
    n_r = match._SAMPLE_STRIDE * k + extra
    if coarse:  # few distinct values, so distances tie
        zq = rng.integers(-2, 3, size=(12, d)).astype(float)
        zr = rng.integers(-2, 3, size=(n_r, d)).astype(float)
    else:
        zq, zr = rng.normal(size=(12, d)), rng.normal(size=(n_r, d))
    zq[:, 0] *= 10.0 ** scale
    zr[:, 0] *= 10.0 ** scale
    zr[rng.integers(n_r, size=n_r // 4)] = zr[rng.integers(n_r, size=n_r // 4)]
    assert_knn_is_the_full_scan(zq, zr, k)


# ---------------------------------------------------------------------------
# tanimoto
# ---------------------------------------------------------------------------


def test_tanimoto_hand_cases():
    assert tanimoto(np.array([1, 1, 0, 1]), np.array([1, 1, 0, 1])) == 1.0
    assert tanimoto(np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1])) == 0.0
    assert tanimoto(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0])) == pytest.approx(1 / 3)
    assert tanimoto(np.zeros(8), np.zeros(8)) == 1.0


def test_tanimoto_width_mismatch():
    with pytest.raises(SchemaError):
        tanimoto(np.zeros(8), np.zeros(16))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=64), st.data())
def test_tanimoto_symmetry_and_identity(bits_a, data):
    a = np.array(bits_a, dtype=np.uint8)
    b = np.array(data.draw(
        st.lists(st.booleans(), min_size=len(bits_a), max_size=len(bits_a))
    ), dtype=np.uint8)
    assert tanimoto(a, b) == tanimoto(b, a)
    assert 0.0 <= tanimoto(a, b) <= 1.0
    if a.any():
        assert tanimoto(a, a) == 1.0


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_line_data():
    t = np.linspace(-1, 1, 40)
    data = np.column_stack([3.0 * t, 4.0 * t])
    proj = pca_project(data)
    direction = proj.components[0]
    assert abs(direction @ np.array([0.6, 0.8])) == pytest.approx(1.0, abs=1e-9)
    assert proj.explained_variances[1] == pytest.approx(0.0, abs=1e-12)


def test_pca_reconstruction_error_equals_discarded_variance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 6))
    proj = pca_project(x)
    xc = x - x.mean(axis=0)
    recon = proj.coordinates @ proj.components
    resid = xc - recon
    discarded = np.trace(xc.T @ xc / 99) - proj.explained_variances.sum()
    assert np.sum(resid**2) / 99 == pytest.approx(discarded, abs=1e-8)


def test_pca_matches_independent_eigendecomposition():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(100, 10)) @ np.diag(np.linspace(3, 0.5, 10))
    proj = pca_project(x)
    # independent oracle: full eigendecomposition of the covariance
    xc = x - x.mean(axis=0)
    vals, vecs = np.linalg.eig(np.cov(x, rowvar=False))
    order = np.argsort(vals.real)[::-1]
    for i in range(2):
        v = vecs[:, order[i]].real
        coords = xc @ v
        agreement = abs(np.dot(coords, proj.coordinates[:, i])) / (
            np.linalg.norm(coords) * np.linalg.norm(proj.coordinates[:, i])
        )
        assert agreement == pytest.approx(1.0, abs=1e-8)  # equal up to sign
        assert proj.explained_variances[i] == pytest.approx(vals.real[order[i]], abs=1e-8)


def test_pca_row_order_invariance_and_orthonormality():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 4))
    proj1 = pca_project(x)
    perm = rng.permutation(50)
    proj2 = pca_project(x[perm])
    assert np.allclose(proj1.components, proj2.components, atol=1e-10)
    assert np.allclose(proj1.coordinates[perm], proj2.coordinates, atol=1e-10)
    gram = proj1.components @ proj1.components.T
    assert np.allclose(gram, np.eye(2), atol=1e-9)
    assert proj1.explained_variances[0] >= proj1.explained_variances[1]


def test_pca_fingerprints_as_reals():
    rng = np.random.default_rng(6)
    fps = FingerprintTable(
        tuple(f"m{i}" for i in range(30)),
        (rng.random((30, 16)) < 0.4).astype(np.uint8),
    )
    proj = pca_project(fps)
    assert proj.coordinates.shape == (30, 2)


def test_project_onto_uses_the_fitted_center():
    rng = np.random.default_rng(6)
    bits = (rng.random((30, 16)) < 0.4).astype(np.uint8)
    proj = pca_project(FingerprintTable(tuple(f"m{i}" for i in range(30)), bits))
    assert np.array_equal(proj.center, bits.astype(np.float64).mean(axis=0))
    # the fitted rows land on their own coordinates, bit for bit
    assert np.array_equal(match.project_onto(proj, bits), proj.coordinates)


def test_pca_fewer_rows_than_columns_matches_covariance():
    # n < d takes the Gram-matrix path; the oracle decomposes the d x d covariance
    rng = np.random.default_rng(8)
    x = (rng.random((40, 120)) < 0.3).astype(np.float64)
    proj = pca_project(x)
    xc = x - x.mean(axis=0)
    vals, vecs = np.linalg.eigh(xc.T @ xc / 39)
    order = np.argsort(vals)[::-1][:2]
    for i, k in enumerate(order):
        assert abs(vecs[:, k] @ proj.components[i]) == pytest.approx(1.0, abs=1e-10)
        assert proj.explained_variances[i] == pytest.approx(vals[k], rel=1e-12)
    assert np.allclose(proj.components @ proj.components.T, np.eye(2), atol=1e-12)
    assert np.allclose(proj.coordinates, xc @ proj.components.T, atol=1e-12)
    perm = rng.permutation(40)
    again = pca_project(x[perm])
    assert np.allclose(again.components, proj.components, atol=1e-10)


def test_pca_two_distinct_rows_rank_deficient():
    bits = _two_distinct_rows()
    proj = pca_project(FingerprintTable(("a", "b"), bits.astype(np.uint8)))
    assert np.allclose(proj.components @ proj.components.T, np.eye(2), atol=1e-12)
    diff = bits[0] - bits[1]
    assert proj.explained_variances[0] == pytest.approx(diff @ diff / 2, rel=1e-12)
    assert proj.explained_variances[1] == pytest.approx(0.0, abs=1e-12)
    assert abs(proj.components[0] @ diff) == pytest.approx(np.linalg.norm(diff), rel=1e-12)
    assert np.allclose(proj.coordinates[:, 1], 0.0, atol=1e-12)


def test_pca_identical_rows_wider_than_tall():
    proj = pca_project(np.ones((3, 8)))
    assert np.all(np.isfinite(proj.components))
    assert np.allclose(proj.components @ proj.components.T, np.eye(2), atol=1e-12)
    assert np.array_equal(proj.explained_variances, np.zeros(2))
    assert np.array_equal(proj.coordinates, np.zeros((3, 2)))


def test_pca_too_few_rows():
    with pytest.raises(InsufficientData):
        pca_project(np.ones((1, 3)))


def _pca_two_copies(data, n_components=2):
    """The earlier pca_project, frozen: it held `x` and `x - center` at once."""
    if isinstance(data, FingerprintTable):
        x = data.bits.astype(np.float64)
    else:
        x = np.asarray(data, dtype=np.float64)
    n, d = x.shape
    center = x.mean(axis=0)
    xc = x - center
    variances = None
    if n < d:
        gram_vals, u = np.linalg.eigh(xc @ xc.T)
        order = np.argsort(gram_vals)[::-1][:n_components]
        lam = gram_vals[order]
        if lam[-1] > 1e-8 * lam[0]:
            variances = lam / (n - 1)
            comps = (xc.T @ (u[:, order] / np.sqrt(lam))).T
    if variances is None:
        eigvals, eigvecs = np.linalg.eigh(xc.T @ xc / (n - 1))
        order = np.argsort(eigvals)[::-1][:n_components]
        variances = eigvals[order]
        comps = eigvecs[:, order].T.copy()
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return match.PcaProjection(comps, np.maximum(variances, 0.0), xc @ comps.T, center)


def _fingerprints(rows, width):
    bits = (np.random.default_rng(21).random((rows, width)) < 0.25).astype(np.uint8)
    return FingerprintTable(tuple(f"m{i}" for i in range(rows)), bits)


def _two_distinct_rows():
    bits = np.zeros((2, 16))
    bits[0, [1, 4, 9]] = 1.0
    bits[1, [4, 12]] = 1.0
    return bits


@pytest.mark.parametrize("make, bitwise", [
    # a 1000 x 1000 Gram matrix takes block Lanczos; the others stay on `eigh`
    pytest.param(lambda: _fingerprints(1000, 2048), False, id="gram-fingerprints-1000x2048"),
    pytest.param(lambda: np.random.default_rng(22).normal(size=(300, 20)), True,
                 id="covariance-tall"),
    pytest.param(_two_distinct_rows, True, id="rank-deficient-fallback"),
    pytest.param(lambda: np.random.default_rng(23).normal(size=(40, 90)).astype(np.float32), True,
                 id="float32"),
])
def test_pca_outputs_are_bitwise_those_of_the_two_copy_version(make, bitwise):
    data = make()
    got, want = pca_project(data), _pca_two_copies(data)
    for field in ("components", "explained_variances", "coordinates", "center"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        if bitwise or field == "center":
            assert a.tobytes() == b.tobytes(), field
    if not bitwise:
        # the block Lanczos path's stated tolerance against a full `eigh`
        assert np.abs(got.components - want.components).max() <= 1e-13
        assert np.abs(got.explained_variances / want.explained_variances - 1).max() <= 1e-13
        assert (np.abs(got.coordinates - want.coordinates).max()
                <= 1e-12 * np.abs(want.coordinates).max())


def test_pca_with_more_components_than_columns_is_refused():
    x = np.random.default_rng(25).normal(size=(100, 1))
    with pytest.raises(InsufficientData, match="^1 columns cannot support 2 components$"):
        pca_project(x)


# ---------------------------------------------------------------------------
# _top_eigenpairs
# ---------------------------------------------------------------------------


def _eigh_top(a, k):
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1][:k]
    return vals[order], vecs[:, order]


def _gram(x):
    xc = x - x.mean(axis=0)
    return xc @ xc.T


def assert_agrees_with_eigh(a, k):
    """The top k eigenvalues within 1e-12 relative, and the spanned
    subspace (so any basis of a repeated eigenvalue's space) within 1e-12."""
    vals, vecs = match._top_eigenpairs(a, k)
    want_vals, want_vecs = _eigh_top(a, k)
    assert vals.shape == (k,) and vecs.shape == (a.shape[0], k)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.abs(vals / want_vals - 1).max() <= 1e-12
    assert np.abs(vecs.T @ vecs - np.eye(k)).max() <= 1e-12
    assert np.abs(vecs @ vecs.T - want_vecs @ want_vecs.T).max() <= 1e-12
    assert np.abs(a @ vecs - vecs * vals).max() <= 1e-12 * vals[0]


def test_top_eigenpairs_find_both_copies_of_a_repeated_top_eigenvalue():
    # three copies of one block of bits: the 300 x 300 Gram matrix's top
    # eigenvalue is double, and a single Lanczos vector would find one copy
    b = (np.random.default_rng(26).random((100, 120)) < 0.25).astype(np.float64)
    gram = _gram(np.kron(np.eye(3), b))
    want = _eigh_top(gram, 3)[0]
    assert want[0] - want[1] <= 1e-12 * want[0] and want[1] - want[2] > 0.5 * want[0]
    assert_agrees_with_eigh(gram, 2)


def _low_rank_gram():
    # six distinct rows, centred: rank 5, so the Krylov basis spans an
    # invariant subspace after a few blocks
    rows = (np.random.default_rng(27).random((6, 2048)) < 0.25).astype(np.float64)
    gram = _gram(rows[np.arange(400) % 6])
    assert np.linalg.matrix_rank(gram) == 5
    return gram


@pytest.mark.parametrize("make", [
    pytest.param(_low_rank_gram, id="invariant-subspace"),
    pytest.param(lambda: -np.eye(300) - _gram(_fingerprints(300, 512).bits.astype(np.float64)),
                 id="no-positive-ritz-value"),
    # evenly spread eigenvalues, no gap: not converged at half the dimension
    pytest.param(lambda: np.diag(np.linspace(1.0, 2.0, 300)), id="basis-at-its-cap"),
])
def test_top_eigenpairs_fall_back_to_eigh_bit_for_bit(make):
    a = make()
    assert match._block_lanczos(a, 2) is None
    for got, want in zip(match._top_eigenpairs(a, 2), _eigh_top(a, 2)):
        assert got.tobytes() == want.tobytes()


def test_top_eigenpairs_are_the_same_bytes_on_every_call_and_at_any_offset():
    gram = _gram(_fingerprints(600, 1024).bits.astype(np.float64))
    first = match._top_eigenpairs(gram, 2)
    shifted = np.empty(gram.size + 1)[1:].reshape(gram.shape)  # 8 bytes off the first copy
    shifted[...] = gram
    for again in (match._top_eigenpairs(gram, 2), match._top_eigenpairs(shifted, 2)):
        for got, want in zip(again, first):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 10])
def test_top_eigenpairs_agree_with_eigh_on_the_gram_path(k):
    assert_agrees_with_eigh(_gram(_fingerprints(1000, 2048).bits.astype(np.float64)), k)


@pytest.mark.parametrize("k", [2, 10])
def test_top_eigenpairs_agree_with_eigh_on_the_covariance_path(k):
    x = np.random.default_rng(28).normal(size=(1200, 300))
    xc = x - x.mean(axis=0)
    assert_agrees_with_eigh(xc.T @ xc / 1199, k)


def test_pca_of_a_large_gram_matrix_calls_no_full_eigendecomposition(monkeypatch):
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    pca_project(_fingerprints(1000, 2048))
    assert sizes and max(sizes) <= match._EIGH_ROWS  # only Rayleigh-Ritz steps


def test_pca_leaves_a_writeable_input_unchanged_and_takes_a_read_only_one():
    rng = np.random.default_rng(24)
    for shape in ((30, 80), (80, 30)):  # the Gram and the covariance branch
        x = rng.normal(size=shape)
        kept = x.copy()
        proj = pca_project(x)
        assert np.array_equal(x, kept)
        x.setflags(write=False)
        again = pca_project(x)
        assert again.coordinates.tobytes() == proj.coordinates.tobytes()


def test_pca_holds_one_copy_of_the_float_rows():
    fps = _fingerprints(1000, 2048)
    float_rows = 1000 * 2048 * 8  # 15.6 MiB
    tracemalloc.start()
    try:
        pca_project(fps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows and their centred copy at once would be 2 x 15.6 MiB plus the Gram matrix
    assert peak < 2 * float_rows


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def plan(rid, before, after, goal=3.0):
    return InterventionPlan(
        row_id=rid, chosen_feature="x", original_value=0.0,
        intervened_value=after - before, predicted_target_before=before,
        predicted_target_after=after, target_goal=goal,
    )


def test_report_identity_scenario():
    # reference = original dataset and zero-delta plans: matched values are
    # the originals; success count = molecules already above threshold
    plans = [plan("a", 2.0, 2.0), plan("b", 3.5, 3.5)]
    neighbors = [
        NeighborResult("a", ("a",), (0.0,), (2.0,)),
        NeighborResult("b", ("b",), (0.0,), (3.5,)),
    ]
    rep = intervention_report(plans, neighbors, {"a": 2.0, "b": 3.5}, threshold=3.0)
    assert rep.matched_targets == (2.0, 3.5)
    assert rep.above_threshold_ids == ("b",)
    assert rep.above_threshold_count == 1


def test_report_three_molecule_hand_tally():
    plans = [plan("a", 1.0, 3.2), plan("b", 0.5, 3.1), plan("c", 2.0, 3.0)]
    neighbors = [
        NeighborResult("a", ("r1", "r2"), (0.1, 0.4)),
        NeighborResult("b", ("r2",), (0.2,)),
        NeighborResult("c", ("r3",), (0.3,)),
    ]
    ref_targets = {"r1": 4.0, "r2": 3.5, "r3": 1.0}
    rep = intervention_report(plans, neighbors, ref_targets, threshold=3.0)
    assert rep.original_targets == (1.0, 0.5, 2.0)
    assert rep.intervened_targets == (3.2, 3.1, 3.0)
    assert rep.matched_targets == (4.0, 3.5, 1.0)
    # two distinct matched molecules exceed 3 Debye
    assert rep.above_threshold_ids == ("r1", "r2")
    assert [p[2] for p in rep.pairs] == [0.1, 0.2, 0.3]


def test_report_with_fingerprints_and_suffixed_queries():
    plans = [plan("a", 1.0, 3.2)]
    neighbors = [NeighborResult("a::do", ("r1",), (0.5,))]  # intervened id
    qfps = FingerprintTable(("a",), np.array([[1, 1, 0, 0]], dtype=np.uint8))
    rfps = FingerprintTable(("r1",), np.array([[1, 0, 1, 0]], dtype=np.uint8))
    rep = intervention_report(
        plans, neighbors, {"r1": 5.0}, threshold=3.0,
        query_fps=qfps, reference_fps=rfps,
    )
    assert rep.pairs[0][1] == pytest.approx(1 / 3)
    assert rep.above_threshold_ids == ("r1",)


@pytest.mark.parametrize("width", [8, 2048])
def test_report_tanimoto_from_packed_rows_counts_the_unpacked_bits(width):
    rng = np.random.default_rng(width)
    bits = (rng.random((6, width)) < 0.25).astype(np.uint8)
    bits[4:] = 0  # two empty rows: their pair scores 1.0
    qfps = FingerprintTable(tuple("abcdef"), bits)
    rfps = FingerprintTable(("r0", "r1", "r2"), bits[[1, 3, 5]])
    plans = [plan(rid, 1.0, 2.0) for rid in "abcdef"]
    matched = ["r0", "r1", "r2", "r0", "r2", "r1"]
    neighbors = [NeighborResult(rid, (m,), (0.5,)) for rid, m in zip("abcdef", matched)]
    rep = intervention_report(plans, neighbors, {"r0": 1.0, "r1": 1.0, "r2": 1.0},
                              query_fps=qfps, reference_fps=rfps)
    qbits, rbits = qfps.bits, rfps.bits
    want = []
    for rid, m in zip("abcdef", matched):
        a, b = qbits[qfps.index(rid)].astype(bool), rbits[rfps.index(m)].astype(bool)
        union = int(np.count_nonzero(a | b))
        want.append(1.0 if union == 0 else float(np.count_nonzero(a & b)) / union)
    assert [p[1] for p in rep.pairs] == want
    assert rep.pairs[4][1] == 1.0
    assert [p[1] for p in rep.pairs] == [tanimoto(qbits[qfps.index(r)], rbits[rfps.index(m)])
                                         for r, m in zip("abcdef", matched)]


def test_report_fingerprint_width_mismatch():
    qfps = FingerprintTable(("a",), np.ones((1, 16), dtype=np.uint8))
    rfps = FingerprintTable(("r1",), np.ones((1, 8), dtype=np.uint8))
    neighbors = [NeighborResult("a", ("r1",), (0.5,))]
    with pytest.raises(SchemaError, match="fingerprint widths differ: 16 vs 8"):
        intervention_report([plan("a", 1.0, 3.2)], neighbors, {"r1": 5.0},
                            query_fps=qfps, reference_fps=rfps)


def test_report_missing_reference_target():
    plans = [plan("a", 1.0, 3.2)]
    neighbors = [NeighborResult("a", ("r1",), (0.5,))]
    with pytest.raises(MissingColumn):
        intervention_report(plans, neighbors, {"other": 1.0})


def test_neighbors_round_trip(tmp_path):
    neighbors = [
        NeighborResult("a", ("r1", "r2"), (0.125, 0.5), (3.25, 1.0)),
        NeighborResult("b", ("r3",), (0.75,), (2.0,)),
    ]
    p = tmp_path / "nn.csv"
    match.save_neighbors(p, neighbors)
    loaded = match.load_neighbors(p)
    assert loaded == neighbors


def test_neighbors_file_repeating_a_rank_is_refused_naming_the_file(tmp_path):
    # the two rank-1 rows used to load as distances (0.5, 0.4), out of order
    p = tmp_path / "nn.csv"
    p.write_text(
        "query_id,rank,ref_id,distance,ref_target\na,1,r1,0.5,\na,1,r2,0.4,\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}: 'a rank 1' is named twice$"):
        match.load_neighbors(p)


@pytest.mark.parametrize("ranks", [(2, 3), (1, 3), (0, 1), (-1,)])
def test_neighbors_file_whose_ranks_are_not_one_to_k_is_refused_naming_the_query(
    tmp_path, ranks
):
    # ranks 2 and 3 alone used to load, and `report` took the rank-2 row as the best match
    p = tmp_path / "nn.csv"
    rows = "".join(f"q1,{r},r{r + 5},0.{r + 5},\n" for r in ranks)
    p.write_text(f"query_id,rank,ref_id,distance,ref_target\nq0,1,r0,0.1,\n{rows}",
                 encoding="utf-8")
    listed = ",".join(map(str, ranks))
    with pytest.raises(SchemaError, match=(
        f"^{re.escape(str(p))}: query 'q1' has ranks {listed}, expected 1..{len(ranks)}$"
    )):
        match.load_neighbors(p)
