import math

import numpy as np
import pytest

from meshseg.nn.layers import (BN_EPS, BatchNorm, Linear, Param, ReLU, Sequential, column_sums,
                               mlp)


def analytic_vs_fd(module, x, h=1e-6):
    """Max relative error between module input/param grads and central FD.

    The scalar objective is sum(sin(forward(x))) so every output entry gets
    a distinct, nonzero upstream gradient.
    """

    def loss():
        return float(np.sin(module.forward(x, train=True)).sum())

    base_out = module.forward(x, train=True)
    dy = np.cos(base_out)
    for _, p in module.parameters():
        p.grad[...] = 0.0
    dx = module.backward(dy)

    worst = 0.0

    def check(value, grad):
        nonlocal worst
        flat, gflat = value.reshape(-1), grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss()
            flat[k] = orig - h
            down = loss()
            flat[k] = orig
            num = (up - down) / (2 * h)
            # The 1e-2 floor keeps roundoff noise from blowing up the ratio
            # for entries whose true gradient is exactly zero (e.g. a bias
            # feeding straight into batch norm).
            worst = max(worst, abs(num - gflat[k]) / max(abs(num), abs(gflat[k]), 1e-2))

    check(x, dx)
    for _, p in module.parameters():
        check(p.value, p.grad)
    return worst


def test_linear_forward_formula(rng):
    lin = Linear(4, 3, rng)
    x = rng.normal(size=(7, 4))
    y = lin.forward(x, train=False)
    expected = x @ lin.weight.value + lin.bias.value
    assert np.allclose(y, expected, atol=1e-15)


def test_linear_backward_matches_fd(rng):
    lin = Linear(3, 5, rng)
    x = rng.normal(size=(6, 3))
    assert analytic_vs_fd(lin, x) < 1e-7


def test_batchnorm_train_forward_formula(rng):
    bn = BatchNorm(4)
    bn.gamma.value = rng.normal(size=4)
    bn.beta.value = rng.normal(size=4)
    x = rng.normal(size=(32, 4))
    y = bn.forward(x, train=True)
    xhat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + BN_EPS)
    assert np.allclose(y, xhat * bn.gamma.value + bn.beta.value, atol=1e-12)


def test_batchnorm_constant_column_maps_to_beta(rng):
    bn = BatchNorm(2)
    bn.beta.value = np.array([0.7, -1.2])
    x = np.full((10, 2), 3.0)
    y = bn.forward(x, train=True)
    # Zero variance: the normalized activation is exactly zero, so the
    # output is beta in every row.
    assert np.allclose(y, bn.beta.value[None, :], atol=1e-12)


def test_batchnorm_running_stats_update(rng):
    bn = BatchNorm(3)
    x = rng.normal(loc=2.0, scale=1.5, size=(20, 3))
    bn.forward(x, train=True)
    n = 20
    assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
    unbiased = x.var(axis=0) * n / (n - 1)
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * unbiased, atol=1e-12)


def test_batchnorm_eval_uses_running_stats(rng):
    bn = BatchNorm(3)
    for _ in range(200):
        bn.forward(rng.normal(loc=5.0, scale=2.0, size=(64, 3)), train=True)
    x = rng.normal(loc=5.0, scale=2.0, size=(16, 3))
    y = bn.forward(x, train=False)
    expected = (x - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS)
    assert np.allclose(y, expected, atol=1e-12)
    # With converged stats the eval output is approximately standardized.
    assert abs(y.mean()) < 0.5


def test_batchnorm_fresh_eval_is_identity_like(rng):
    # Before any training step, running mean/var are 0/1, so eval mode is
    # x/sqrt(1+eps), i.e. the identity up to eps.
    bn = BatchNorm(4)
    x = rng.normal(size=(5, 4))
    assert np.allclose(bn.forward(x, train=False), x, atol=1e-4)


def test_batchnorm_backward_matches_fd(rng):
    bn = BatchNorm(3)
    bn.gamma.value = rng.normal(size=3)
    bn.beta.value = rng.normal(size=3)
    x = rng.normal(size=(9, 3))
    assert analytic_vs_fd(bn, x) < 1e-5


def exact_column_sums(x):
    return np.array([math.fsum(column) for column in x.T])


@pytest.mark.parametrize("shape", [(38_000, 8), (21_000, 64), (0, 5)])
def test_column_sums_match_exact_sums(rng, shape):
    x = rng.normal(loc=0.5, size=shape)
    got = column_sums(x)
    assert got.shape == (shape[1],)
    assert np.all(np.abs(got - exact_column_sums(x)) <= 1e-12 * np.abs(x).sum(axis=0))
    # Strided row and column views, as the edge convolution passes them.
    for view in (x[0::2], x[:, : shape[1] // 2]):
        assert np.all(np.abs(column_sums(view) - exact_column_sums(view))
                      <= 1e-12 * np.abs(view).sum(axis=0))


def textbook_batchnorm_backward(xhat, inv_std, gamma, dy):
    """Train-mode batch-norm adjoint through dxhat = dy * gamma: (dx, dgamma, dbeta)."""
    n = dy.shape[0]
    dxhat = dy * gamma
    dx = (inv_std / n) * (
        n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
    )
    return dx, (dy * xhat).sum(axis=0), dy.sum(axis=0)


def test_batchnorm_backward_matches_textbook(rng):
    bn = BatchNorm(6)
    bn.gamma.value = rng.normal(size=6)
    bn.beta.value = rng.normal(size=6)
    x = rng.normal(loc=3.0, scale=2.0, size=(200, 6))
    dy = rng.normal(size=(200, 6))
    bn.forward(x, train=True)
    xhat, inv_std = (a.copy() for a in bn._cache)
    dx_ref, dgamma_ref, dbeta_ref = textbook_batchnorm_backward(xhat, inv_std,
                                                                bn.gamma.value, dy)
    dx = bn.backward(dy)
    # Both the layer and NumPy's pairwise sum round; each is compared with
    # the exactly rounded column sums.
    for got, ref, rows in ((bn.gamma.grad, dgamma_ref, dy * xhat),
                           (bn.beta.grad, dbeta_ref, dy)):
        exact = exact_column_sums(rows)
        bound = 1e-12 * np.abs(rows).sum(axis=0)
        assert np.all(np.abs(got - exact) <= bound)
        assert np.all(np.abs(ref - exact) <= bound)
    assert np.abs(dx - dx_ref).max() <= 1e-12 * np.abs(dx_ref).max()
    # The cached normalized input is the textbook one.
    expected = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + BN_EPS)
    assert np.allclose(xhat, expected, rtol=0, atol=1e-12)
    assert bn._cache is None


def test_sequential_leaves_earlier_caches_unchanged(rng):
    """No module overwrites an array that another module cached for backward.

    ReLU writes into its input; this holds only while that input is a fresh
    array, as the batch-norm output is.
    """
    seq = mlp((3, 6, 4), rng)
    for m in seq.modules:
        if isinstance(m, BatchNorm):
            m.beta.value = rng.normal(size=m.beta.value.shape)
    x = rng.normal(size=(25, 3))
    x_before = x.copy()

    def cached(module):
        out = []
        for name, value in vars(module).items():
            if name.startswith("_") and value is not None:
                out += [a for a in (value if isinstance(value, tuple) else (value,))
                        if isinstance(a, np.ndarray)]
        return out

    snapshots = {}
    for m in seq.modules:
        def forward(h, train, m=m, original=m.forward):
            out = original(h, train)
            snapshots[id(m)] = [(a, a.copy()) for a in cached(m)]
            return out

        def backward(dy, m=m, original=m.backward):
            for a, before in snapshots[id(m)]:
                assert np.array_equal(a, before), type(m).__name__
            return original(dy)
        m.forward, m.backward = forward, backward

    y = seq.forward(x, train=True)
    # Per layer: the Linear input, the batch-norm xhat and inv_std, the ReLU mask.
    assert sum(len(v) for v in snapshots.values()) == 2 * (1 + 2 + 1)
    seq.backward(np.ones_like(y))
    assert np.array_equal(x, x_before)
    assert all(not cached(m) for m in seq.modules)


def test_relu(rng):
    relu = ReLU()
    x = np.array([[-1.0, 0.0, 2.5]])
    assert np.array_equal(relu.forward(x, train=True), [[0.0, 0.0, 2.5]])
    dy = np.ones((1, 3))
    dx = relu.backward(dy)
    assert dx is dy  # masked in place
    assert np.array_equal(dx, [[0.0, 0.0, 1.0]])


def test_sequential_composes(rng):
    lin1, lin2 = Linear(3, 4, rng), Linear(4, 2, rng)
    seq = Sequential(lin1, ReLU(), lin2)
    x = rng.normal(size=(5, 3))
    manual = lin2.forward(np.maximum(lin1.forward(x, train=False), 0.0), train=False)
    assert np.allclose(seq.forward(x, train=False), manual, atol=1e-15)
    names = [name for name, _ in seq.parameters()]
    assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]


def test_sequential_backward_matches_fd(rng):
    seq = Sequential(Linear(3, 6, rng), BatchNorm(6), ReLU(), Linear(6, 2, rng))
    x = rng.normal(size=(8, 3))
    assert analytic_vs_fd(seq, x) < 1e-6


def test_mlp_structure_and_param_count(rng):
    net = mlp((9, 32, 16), rng)
    assert [type(m).__name__ for m in net.modules] == [
        "Linear", "BatchNorm", "ReLU", "Linear", "BatchNorm", "ReLU",
    ]
    total = sum(p.size for _, p in net.parameters())
    assert total == (9 * 32 + 32 + 2 * 32) + (32 * 16 + 16 + 2 * 16)


def test_param_grad_accumulates(rng):
    lin = Linear(2, 2, rng)
    x = rng.normal(size=(3, 2))
    lin.forward(x, train=True)
    lin.backward(np.ones((3, 2)))
    once = lin.weight.grad.copy()
    lin.forward(x, train=True)
    lin.backward(np.ones((3, 2)))
    assert np.allclose(lin.weight.grad, 2 * once, atol=1e-12)


def test_param_wraps_float64():
    p = Param(np.array([1, 2], dtype=np.int32))
    assert p.value.dtype == np.float64
    assert p.grad.shape == (2,)
    assert p.size == 2
