import numpy as np
import pytest

from meshseg.graph.neighborhoods import EdgeSet
from meshseg.graph.res import res_sample, sampling_probability


def test_small_neighborhoods_always_kept():
    for T in (1, 15, 25):
        for n in range(0, T + 1):
            assert sampling_probability(n, T) == 1.0


def test_probability_half_at_twice_threshold():
    # (2T - (T-1)) = T+1, and (T+1)^(-1/log2(T+1)) = 2^(-1) exactly.
    for T in (1, 5, 15, 25, 35):
        assert sampling_probability(2 * T, T) == pytest.approx(0.5, abs=1e-12)


def test_probability_closed_forms():
    # T=1: exponent -1/log2(2) = -1, so p(n) = 1/n for n > 1.
    assert sampling_probability(3, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sampling_probability(10, 1) == pytest.approx(0.1, abs=1e-12)
    # T=15: p(16) = 2^(-1/4).
    assert sampling_probability(16, 15) == pytest.approx(2 ** (-0.25), abs=1e-12)


def test_probability_monotone_decreasing():
    T = 15
    ps = [sampling_probability(n, T) for n in range(T, 200)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert all(0 < p <= 1 for p in ps)


def test_probability_invalid_args():
    with pytest.raises(ValueError):
        sampling_probability(5, 0)
    with pytest.raises(ValueError):
        sampling_probability(-1, 5)


def test_sample_keeps_small_neighborhoods_intact():
    edges = EdgeSet([np.arange(10), np.arange(15), np.arange(16)])
    out = res_sample(edges, 15, seed=0)
    assert np.array_equal(out.neighbors[0], np.arange(10))
    assert np.array_equal(out.neighbors[1], np.arange(15))
    assert len(out.neighbors[2]) <= 16


def test_sample_deterministic_and_seed_sensitive():
    edges = EdgeSet([np.arange(60) for _ in range(20)])
    a = res_sample(edges, 15, seed=42)
    b = res_sample(edges, 15, seed=42)
    c = res_sample(edges, 15, seed=43)
    assert all(np.array_equal(x, y) for x, y in zip(a.neighbors, b.neighbors))
    assert any(not np.array_equal(x, y) for x, y in zip(a.neighbors, c.neighbors))


def test_sample_independent_of_other_vertices():
    # Per-vertex counter streams: vertex i's draw does not depend on what
    # other vertices exist.
    big = EdgeSet([np.arange(40) for _ in range(5)])
    small = EdgeSet([np.arange(40), np.empty(0, dtype=np.int64),
                     np.arange(40), np.empty(0, dtype=np.int64), np.arange(40)])
    a = res_sample(big, 15, seed=3)
    b = res_sample(small, 15, seed=3)
    for i in (0, 2, 4):
        assert np.array_equal(a.neighbors[i], b.neighbors[i])


def test_sample_output_is_subset():
    edges = EdgeSet([np.arange(100, 160)])
    out = res_sample(edges, 15, seed=1)
    assert set(out.neighbors[0]).issubset(set(range(100, 160)))


def test_sample_empirical_rate_simple():
    # Coarse check here; the tight 3-sigma sweep lives in the acceptance suite.
    n, T, V = 30, 15, 4000
    edges = EdgeSet([np.arange(n)] * V)
    out = res_sample(edges, T, seed=9)
    rate = sum(len(x) for x in out.neighbors) / (n * V)
    assert rate == pytest.approx(0.5, abs=0.02)


def test_sample_invalid_threshold():
    with pytest.raises(ValueError):
        res_sample(EdgeSet([np.arange(3)]), 0, seed=0)


def test_sample_stream_is_pinned():
    # Vertex i keeps edge k iff draw k of Philox(key=seed, counter=[0, 0, 0, i])
    # is below the keep probability; rows of size <= T are copied whole.
    rng = np.random.default_rng(5)
    T, seed = 15, 77
    rows = [rng.integers(0, 500, int(n)) for n in rng.integers(0, 60, 300)]
    out = res_sample(EdgeSet(rows), T, seed)
    for i, row in enumerate(rows):
        n = len(row)
        if n <= T:
            expected = row
        else:
            bits = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, i])
            expected = row[np.random.Generator(bits).random(n) < sampling_probability(n, T)]
        assert np.array_equal(out.neighbors[i], expected)
