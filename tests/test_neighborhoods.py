import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import _sparsetools

from meshseg.graph.neighborhoods import (
    EdgeSet,
    NeighborhoodConfig,
    Segments,
    knn_graph,
    nearest_points,
    radius_graph,
)


def brute_knn(points, k):
    n = len(points)
    out = []
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        order = np.lexsort((np.arange(n), d))
        order = order[order != i]
        out.append(np.sort(order[:k]))
    return out


def brute_nearest(points, k, queries=None):
    """k nearest by (squared distance, index); self excluded without queries."""
    self_query = queries is None
    out = []
    for i, q in enumerate(points if self_query else queries):
        d2 = ((q - points) ** 2).sum(-1)
        order = np.lexsort((np.arange(len(points)), d2))
        if self_query:
            order = order[order != i]
        out.append(order[:k])
    return np.asarray(out, dtype=np.int64).reshape(-1, k)


def brute_radius(points, r):
    n = len(points)
    out = []
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        nbrs = np.flatnonzero((d <= r) & (np.arange(n) != i))
        out.append(nbrs)
    return out


def test_knn_matches_brute_force(rng):
    for _ in range(10):
        points = rng.uniform(0, 1, (60, 3))
        k = int(rng.integers(1, 8))
        edges = knn_graph(points, k)
        oracle = brute_knn(points, k)
        for i in range(60):
            assert np.array_equal(np.sort(edges.neighbors[i]), oracle[i])


def test_knn_tie_break_prefers_lower_index():
    # Four points at equal distance 1 from the origin; k=2 must pick the
    # two lowest indices among the tied candidates.
    points = np.array([
        [0, 0, 0.0],
        [1, 0, 0.0],
        [0, 1, 0.0],
        [-1, 0, 0.0],
        [0, -1, 0.0],
    ])
    edges = knn_graph(points, 2)
    assert np.array_equal(np.sort(edges.neighbors[0]), [1, 2])


def test_knn_excludes_self(rng):
    points = rng.uniform(0, 1, (30, 3))
    edges = knn_graph(points, 5)
    for i, nbrs in enumerate(edges.neighbors):
        assert i not in nbrs
        assert len(nbrs) == 5


def test_knn_k_too_large_raises(rng):
    with pytest.raises(ValueError):
        knn_graph(rng.uniform(0, 1, (4, 3)), 4)


def test_nearest_points_matches_argmin(rng):
    queries = rng.uniform(0, 1, (37, 3))
    points = rng.uniform(0, 1, (11, 3))
    idx = nearest_points(points, queries=queries)[:, 0]
    d2 = ((queries[:, None] - points[None]) ** 2).sum(axis=2)
    assert np.array_equal(idx, np.argmin(d2, axis=1))


_lattice = st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=2, max_size=40)


@given(points=_lattice, queries=_lattice, k=st.integers(1, 12), self_query=st.booleans(),
       spacing=st.sampled_from([1.0, 0.1]))
@settings(max_examples=300, deadline=None)
def test_nearest_points_matches_brute_force_on_lattice(points, queries, k, self_query,
                                                       spacing):
    # Lattice points, duplicates included, tie at equal distances all the time.
    points = np.asarray(points, dtype=np.float64) * spacing
    queries = None if self_query else np.asarray(queries, dtype=np.float64) * spacing
    k = min(k, len(points) - self_query)
    assert np.array_equal(nearest_points(points, k, queries),
                          brute_nearest(points, k, queries))


def test_nearest_points_k_out_of_range(rng):
    points = rng.uniform(0, 1, (4, 3))
    for k, queries in ((0, points), (5, points), (4, None)):
        with pytest.raises(ValueError):
            nearest_points(points, k, queries)
    assert nearest_points(points, 4, np.empty((0, 3))).shape == (0, 4)


def test_radius_matches_brute_force(rng):
    for _ in range(10):
        points = rng.uniform(0, 1, (60, 3))
        r = float(rng.uniform(0.1, 0.4))
        edges = radius_graph(points, r)
        oracle = brute_radius(points, r)
        for i in range(60):
            assert np.array_equal(np.sort(edges.neighbors[i]), oracle[i])


def test_radius_isolated_point_has_an_empty_row():
    points = np.array([[0, 0, 0.0], [10, 0, 0], [10.1, 0, 0]])
    edges = radius_graph(points, 0.5)
    assert len(edges.neighbors[0]) == 0
    assert np.array_equal(edges.neighbors[1], [2])
    assert np.array_equal(radius_graph(points[:1], 0.5).indptr, [0, 0])


def test_knn_deterministic(rng):
    points = rng.uniform(0, 1, (50, 3))
    a = knn_graph(points, 6)
    b = knn_graph(points, 6)
    assert all(np.array_equal(x, y) for x, y in zip(a.neighbors, b.neighbors))


def test_neighborhood_config_validation():
    with pytest.raises(ValueError):
        NeighborhoodConfig(kind="bogus")
    with pytest.raises(ValueError):
        NeighborhoodConfig(kind="knn", k=0)
    with pytest.raises(ValueError):
        NeighborhoodConfig(kind="radius", radius=0.0)


@given(st.lists(st.lists(st.integers(0, 19), max_size=6), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_edge_set_flatten_from_pairs_round_trip(lists):
    edges = EdgeSet([np.asarray(l, dtype=np.int64) for l in lists])
    centers, nbrs = edges.flatten()
    back = EdgeSet.from_pairs(centers, nbrs, len(lists))
    assert back == edges


@given(st.integers(1, 30), st.data())
@settings(max_examples=300, deadline=None)
def test_symmetric_matches_unique_of_the_keys(n, data):
    vertex = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    keys = np.unique(np.concatenate([a * n + b, b * n + a]))
    want = EdgeSet.from_pairs(keys // n, keys % n, n)
    edges = EdgeSet.symmetric(a, b, n)
    assert np.array_equal(edges.indptr, want.indptr)
    assert np.array_equal(edges.indices, want.indices)


def test_edge_set_validate_range():
    edges = EdgeSet([np.array([0, 3])])
    with pytest.raises(ValueError):
        edges.validate(2)
    edges.validate(4)


@pytest.mark.parametrize("indptr, indices, message", [
    ([], [], "start at 0"),
    ([1, 2], [0], "start at 0"),
    ([0, 2, 1, 3], [0, 1, 2], "not monotone"),
    ([0, 1, 3], [0, 1], "ends at 3"),
    ([0, 1, 2], [0, 1, 2], "ends at 2"),
    ([0, 1, 2], [0, -1], "out of range at vertex 1"),
    ([0, 2, 2], [1, 2], "out of range at vertex 0"),
])
def test_edge_set_validate_csr_structure(indptr, indices, message):
    with pytest.raises(ValueError, match=message):
        EdgeSet.from_csr(indptr, indices).validate()


def test_scatter_sum_matches_add_at_bitwise(rng):
    values = rng.standard_normal((500, 7)) * 10.0 ** rng.integers(-8, 8, (500, 1))
    index = rng.integers(0, 40, 500)
    expected = np.zeros((45, 7))
    np.add.at(expected, index, values)
    assert np.array_equal(Segments(index, 45).sum(values), expected)
    assert np.array_equal(Segments(index, 45).sum(values[:, 2]), expected[:, 2])
    with pytest.raises(IndexError):
        Segments(np.where(index == 3, 45, index), 45).sum(values)
    with pytest.raises(IndexError):
        Segments(np.where(index == 3, -1, index), 45).sum(values)


def test_scatter_sum_to_several_segments_per_row_matches_add_at(rng):
    values = rng.standard_normal((300, 5)) * 10.0 ** rng.integers(-8, 8, (300, 1))
    index = rng.integers(0, 30, (300, 2))
    expected = np.zeros((30, 5))
    np.add.at(expected, index, values[:, None, :])
    segments = Segments(index, 30)
    assert np.array_equal(segments.sum(values), expected)
    # The transpose gathers each row's segments back and adds them.
    rows = rng.standard_normal((30, 5))
    assert np.array_equal(segments.gather(rows), rows[index[:, 0]] + rows[index[:, 1]])


@pytest.mark.parametrize("shape", [(300,), (300, 2)], ids=["one", "two"])
def test_segment_operators_are_adjoint(rng, shape):
    """<sum v, w> = <v, gather w> and <mean v, w> = <v, mean_adjoint w>."""
    index = rng.integers(0, 30, shape)
    index.reshape(-1)[:30] = np.arange(30)  # no empty segment
    segments = Segments(index, 30)
    v = rng.standard_normal((300, 4))
    w = rng.standard_normal((30, 4))
    for forward, adjoint in ((segments.sum, segments.gather),
                             (segments.mean, segments.mean_adjoint)):
        lhs, rhs = np.vdot(forward(v), w), np.vdot(v, adjoint(w))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    # The mean of each segment, and its adjoint, by definition.
    sizes = np.bincount(index.reshape(-1), minlength=30)
    assert np.array_equal(segments.sizes, sizes)
    assert np.array_equal(segments.mean(v), segments.sum(v) / sizes[:, None])
    if index.ndim == 1:
        assert np.array_equal(segments.mean_adjoint(w), (w / sizes[:, None])[index])


def test_segments_build_index_arrays_once_and_ones_once_per_dtype(rng, monkeypatch):
    matrices = []  # the (indptr, indices, data) of every kernel call
    for name in ("csc_matvecs", "csr_matvecs"):
        def recorded(*args, kernel=getattr(_sparsetools, name)):
            matrices.append(args[3:6])
            return kernel(*args)
        monkeypatch.setattr(_sparsetools, name, recorded)
    segments = Segments(rng.integers(0, 10, (40, 2)), 10)
    v, w = rng.standard_normal((40, 3)), rng.standard_normal((10, 3))
    for _ in range(3):
        for dtype in (np.float64, np.float32):
            segments.sum(v.astype(dtype))
            segments.gather(w.astype(dtype))
            segments.mean(v.astype(dtype))
            segments.mean_adjoint(w.astype(dtype))
    assert len(matrices) == 24
    indptr, indices, _ = matrices[0]
    assert all(m[0] is indptr and m[1] is indices for m in matrices)
    ones = {m[2].dtype: m[2] for m in matrices}
    assert set(ones) == {np.dtype(np.float32), np.dtype(np.float64)}
    assert all(m[2] is ones[m[2].dtype] for m in matrices)


def test_float32_products_leave_float64_results_unchanged(rng):
    segments = Segments(rng.integers(0, 10, (40, 2)), 10)
    v, w = rng.standard_normal((40, 3)) * 100, rng.standard_normal((10, 3)) * 100
    before = segments.sum(v).tobytes(), segments.gather(w).tobytes()
    for op, values in ((segments.sum, v), (segments.gather, w),
                       (segments.mean, v), (segments.mean_adjoint, w)):
        op(values.astype(np.float32))
    assert (segments.sum(v).tobytes(), segments.gather(w).tobytes()) == before


def test_edge_set_num_edges():
    edges = EdgeSet([np.array([1, 2]), np.array([0]), np.empty(0, dtype=np.int64)])
    assert edges.num_edges == 3
    assert len(edges) == 3


OPERAND_DTYPES = [np.float32, np.float64, np.int64]


def through_scipy(matrix, values):
    """matrix @ values with scipy's public operator, over the first axis."""
    if values.ndim == 1:
        return matrix @ values
    return (matrix @ values.reshape(len(values), -1)).reshape((matrix.shape[0],)
                                                              + values.shape[1:])


@pytest.mark.parametrize("dtype", OPERAND_DTYPES, ids=["float32", "float64", "int64"])
@pytest.mark.parametrize("tail", [(), (3,), (2, 3)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("index_shape", [(40,), (40, 2)], ids=["one", "two"])
def test_products_into_out_match_the_scipy_operator(rng, dtype, tail, index_shape):
    index = rng.integers(0, 10, index_shape)
    index.reshape(-1)[:10] = np.arange(10)  # no empty segment
    segments = Segments(index, 10)
    result = np.float32 if dtype == np.float32 else np.float64
    # The count x n 0/1 matrix with one column per row, built anew: astype
    # would sort and merge `segments.incidence` in place.
    per_row = index.shape[1] if index.ndim == 2 else 1
    incidence = sparse.csc_matrix((np.ones(index.size, dtype=result), index.reshape(-1),
                                   np.arange(0, index.size + 1, per_row)), shape=(10, 40))
    sizes = np.bincount(index.reshape(-1), minlength=10).astype(result)
    rows = (rng.standard_normal((40,) + tail) * 100).astype(dtype)
    per_segment = (rng.standard_normal((10,) + tail) * 100).astype(dtype)
    cases = [
        (segments.sum, rows, through_scipy(incidence, rows)),
        (segments.gather, per_segment, through_scipy(incidence.T, per_segment)),
        (segments.mean_adjoint, per_segment,
         through_scipy(incidence.T, per_segment / sizes.reshape((-1,) + (1,) * len(tail)))),
    ]
    for op, values, expected in cases:
        assert expected.dtype == result
        out = np.full(expected.shape, np.nan, dtype=result)  # stale contents
        assert op(values, out=out) is out
        assert out.tobytes() == expected.tobytes(), op.__name__
        fresh = op(values)
        assert fresh.dtype == result and fresh.tobytes() == expected.tobytes(), op.__name__


@pytest.mark.parametrize("op", ["sum", "gather", "mean_adjoint"])
def test_product_out_must_be_the_result_array(rng, op):
    segments = Segments(rng.integers(0, 10, (40, 2)), 10)
    rows = 40 if op == "sum" else 10
    shape = (10 if op == "sum" else 40, 3)
    values = rng.standard_normal((rows, 3))
    wrong = {
        "shape": np.zeros((shape[0], 4)),
        "dtype": np.zeros(shape, dtype=np.float32),
        "integer dtype": np.zeros(shape, dtype=np.int64),
        "strided": np.zeros((shape[0], 6))[:, ::2],
        "Fortran-ordered": np.zeros(shape[::-1]).T,
    }
    for what, out in wrong.items():
        with pytest.raises(ValueError, match="out must be"):
            getattr(segments, op)(values, out=out)
        assert not out.any(), what  # nothing was written
    # float32 operands give float32 results, and integer ones float64.
    with pytest.raises(ValueError, match="out must be"):
        getattr(segments, op)(values.astype(np.float32), out=np.zeros(shape))
    getattr(segments, op)(values.astype(np.int64), out=np.zeros(shape))
    with pytest.raises(ValueError):
        getattr(segments, op)(values[1:], out=np.zeros(shape))
