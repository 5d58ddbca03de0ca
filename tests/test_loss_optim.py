import numpy as np
import pytest

from meshseg.mesh.core import UNLABELED
from meshseg.nn.layers import Param
from meshseg.nn.loss import cross_entropy_loss
from meshseg.nn.optim import Adam, learning_rate


def test_uniform_logits_loss_is_log_num_classes(rng):
    for c in (2, 5, 21):
        logits = np.full((10, c), 3.7)
        labels = rng.integers(0, c, 10)
        loss, grad = cross_entropy_loss(logits, labels)
        assert loss == pytest.approx(np.log(c), abs=1e-12)


def test_perfect_prediction_loss_near_zero(rng):
    labels = rng.integers(0, 4, 6)
    logits = np.zeros((6, 4))
    logits[np.arange(6), labels] = 50.0
    loss, _ = cross_entropy_loss(logits, labels)
    assert loss < 1e-12


def test_unlabeled_vertices_excluded(rng):
    logits = rng.normal(size=(8, 3))
    labels = rng.integers(0, 3, 8)
    base_loss, base_grad = cross_entropy_loss(logits[:5], labels[:5])
    labels2 = labels.copy()
    labels2[5:] = UNLABELED
    loss, grad = cross_entropy_loss(logits, labels2)
    assert loss == pytest.approx(base_loss, abs=1e-12)
    assert np.allclose(grad[:5], base_grad, atol=1e-12)
    assert np.array_equal(grad[5:], np.zeros((3, 3)))


def test_loss_gradient_matches_fd(rng):
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, 6)
    labels[2] = UNLABELED
    _, grad = cross_entropy_loss(logits, labels)
    h = 1e-6
    for i in range(6):
        for c in range(4):
            orig = logits[i, c]
            logits[i, c] = orig + h
            up, _ = cross_entropy_loss(logits, labels)
            logits[i, c] = orig - h
            down, _ = cross_entropy_loss(logits, labels)
            logits[i, c] = orig
            num = (up - down) / (2 * h)
            assert abs(num - grad[i, c]) < 1e-9


def test_loss_errors(rng):
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((3, 2)), np.full(3, UNLABELED))
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))


def test_loss_is_stable_for_large_logits():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    loss, grad = cross_entropy_loss(logits, np.array([0, 1]))
    assert np.isfinite(loss) and np.isfinite(grad).all()
    assert loss < 1e-12


def test_learning_rate_schedule():
    assert learning_rate(0) == 1e-3
    assert learning_rate(39) == 1e-3
    assert learning_rate(40) == 5e-4
    assert learning_rate(80) == 2.5e-4
    assert learning_rate(80, base_lr=0.1) == pytest.approx(0.025)


def test_adam_single_step_formula(rng):
    p = Param(rng.normal(size=(3, 2)))
    start = p.value.copy()
    g = rng.normal(size=(3, 2))
    p.grad[...] = g
    opt = Adam([("p", p)], lr=0.01)
    opt.step()
    m = 0.1 * g
    v = 0.001 * g * g
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = start - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(p.value, expected, atol=1e-15)


def test_adam_two_steps_formula(rng):
    p = Param(np.array([1.0]))
    g1, g2 = 0.3, -0.7
    opt = Adam([("p", p)], lr=0.1)
    m = v = 0.0
    expected = 1.0
    for t, g in enumerate((g1, g2), start=1):
        p.grad[...] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        expected -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert p.value[0] == pytest.approx(expected, abs=1e-15)


def test_adam_zero_gradient_leaves_value_unchanged(rng):
    p = Param(rng.normal(size=4))
    before = p.value.copy()
    opt = Adam([("p", p)])
    opt.step()
    assert np.allclose(p.value, before, atol=1e-12)


def test_adam_descends_on_quadratic():
    p = Param(np.array([5.0]))
    opt = Adam([("p", p)], lr=0.1)
    for _ in range(500):
        p.grad[...] = 2 * p.value  # d/dp of p^2
        opt.step()
    assert abs(p.value[0]) < 1e-2
