import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshseg.mesh.core import UNLABELED
from meshseg.hierarchy.trace import PoolingTraceMap, pool_labels


def random_trace(rng, fine, coarse):
    """Surjective random assignment: one fine vertex pinned per coarse vertex."""
    assignment = rng.integers(0, coarse, fine)
    pins = rng.choice(fine, size=coarse, replace=False)
    assignment[pins] = np.arange(coarse)
    return PoolingTraceMap(assignment, coarse)


surjective_traces = st.integers(1, 40).flatmap(
    lambda c: st.integers(c, 80).flatmap(
        lambda f: st.integers(0, 2 ** 31 - 1).map(
            lambda seed: random_trace(np.random.default_rng(seed), f, c)
        )
    )
)


@given(surjective_traces)
@settings(max_examples=200, deadline=None)
def test_pool_mean_of_unpool_is_identity(trace):
    rng = np.random.default_rng(0)
    coarse = rng.standard_normal((trace.coarse_count, 5))
    assert np.allclose(trace.mean(trace.gather(coarse)), coarse, atol=1e-12)


@given(surjective_traces)
@settings(max_examples=200, deadline=None)
def test_trace_validates_and_group_sizes_sum(trace):
    trace.validate()
    sizes = trace.sizes
    assert sizes.sum() == trace.fine_count
    assert (sizes >= 1).all()


def test_non_surjective_trace_rejected():
    trace = PoolingTraceMap(np.array([0, 0, 2]), 3)
    with pytest.raises(ValueError, match="coarse vertex 1"):
        trace.validate()


def test_out_of_range_trace_rejected():
    with pytest.raises(ValueError):
        PoolingTraceMap(np.array([0, 3]), 3).validate()
    with pytest.raises(ValueError):
        PoolingTraceMap(np.array([0, -1]), 2).validate()


def test_pool_modes_match_loops(rng):
    trace = random_trace(rng, 30, 7)
    x = rng.standard_normal((30, 4))
    # The mean pools features; the sum is the adjoint of unpooling.
    for out, fn in ((trace.mean(x), np.mean), (trace.sum(x), np.sum)):
        for c in range(7):
            rows = x[trace.assignment == c]
            assert np.allclose(out[c], fn(rows, axis=0), atol=1e-12)


def test_pool_shape_mismatch(rng):
    trace = random_trace(rng, 5, 2)
    with pytest.raises(ValueError):
        trace.mean(np.zeros((6, 1)))
    with pytest.raises(ValueError):
        trace.gather(np.zeros((3, 1)))


def test_unpool_copies_rows(rng):
    trace = random_trace(rng, 12, 4)
    coarse = rng.standard_normal((4, 3))
    fine = trace.gather(coarse)
    for i in range(12):
        assert np.array_equal(fine[i], coarse[trace.assignment[i]])


def test_pool_labels_majority_and_ties():
    trace = PoolingTraceMap(np.array([0, 0, 0, 1, 1, 2, 2]), 3)
    labels = np.array([4, 4, 1, 3, 5, 2, 2])
    out = pool_labels(labels, trace)
    assert out[0] == 4          # majority
    assert out[1] == 3          # tie {3, 5} -> lowest class
    assert out[2] == 2


def test_pool_labels_matches_a_loop_for_any_label_values(rng):
    # Labels far apart and far from zero: no table of label values fits.
    values = np.array([UNLABELED, 3, 2_000_000_000, 2**62, 9])
    for _ in range(50):
        trace = random_trace(rng, 40, 9)
        labels = values[rng.integers(0, len(values), 40)]
        expected = []
        for group in range(9):
            members = labels[(trace.assignment == group) & (labels != UNLABELED)]
            kinds, counts = np.unique(members, return_counts=True)
            expected.append(kinds[np.argmax(counts)] if members.size else UNLABELED)
        assert pool_labels(labels, trace).tolist() == expected


def test_pool_labels_unlabeled_rules():
    trace = PoolingTraceMap(np.array([0, 0, 1, 1, 1]), 2)
    labels = np.array([UNLABELED, UNLABELED, UNLABELED, 2, UNLABELED])
    out = pool_labels(labels, trace)
    assert out[0] == UNLABELED  # whole group unlabeled
    assert out[1] == 2          # single label beats any number of unlabeled

