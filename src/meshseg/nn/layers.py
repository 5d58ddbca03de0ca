"""Minimal dense layers with explicit reverse-mode gradients.

Everything is float64 numpy. Each module caches what its backward pass
needs during forward(train=True), accumulates parameter gradients into
Param.grad and drops the cache; backward returns the gradient wrt the module
input and is defined once per train-mode forward. ReLU overwrites its input
in forward and its upstream gradient in backward, so both must be fresh
arrays that nothing else holds: in `mlp` and the network head the input is
the output of a BatchNorm, and the gradient that of a Linear or a gather.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class Param:
    """Trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size


class Linear:
    def __init__(self, in_width: int, out_width: int, rng: np.random.Generator):
        bound = np.sqrt(6.0 / in_width)
        self.weight = Param(rng.uniform(-bound, bound, size=(in_width, out_width)))
        self.bias = Param(rng.uniform(-1.0, 1.0, size=out_width) / np.sqrt(in_width))
        self._x = None

    def forward(self, x, train: bool):
        if train:
            self._x = x
        y = x @ self.weight.value
        y += self.bias.value
        return y

    def backward(self, dy):
        x, self._x = self._x, None
        self.weight.grad += x.T @ dy
        self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.value.T

    def parameters(self):
        yield "weight", self.weight
        yield "bias", self.bias


class BatchNorm:
    """Batch normalization over rows with running statistics for eval."""

    def __init__(self, width: int):
        self.gamma = Param(np.ones(width))
        self.beta = Param(np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self._cache = None

    def forward(self, x, train: bool):
        if train:
            n = x.shape[0]
            mean = x.mean(axis=0)
            xhat = x - mean
            var = np.einsum("ij,ij->j", xhat, xhat) / n
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat *= inv_std
            self._cache = (xhat, inv_std)
            self.track(mean, var, n)
            y = xhat * self.gamma.value
        else:
            # Nothing is cached, so the normalized rows can take the output.
            y = x - self.running_mean
            y *= self.gamma.value / np.sqrt(self.running_var + BN_EPS)
        y += self.beta.value
        return y

    def track(self, mean, var, n: int):
        """Fold one batch's mean and (biased) variance over n rows into the
        running statistics, the variance unbiased."""
        unbiased = var * n / max(n - 1, 1)
        self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * unbiased

    def backward(self, dy):
        """Train-mode adjoint: dx = gamma inv_std (dy - dbeta/n - xhat dgamma/n)."""
        xhat, inv_std = self._cache
        self._cache = None
        n = dy.shape[0]
        dbeta = dy.sum(axis=0)
        dgamma = (dy * xhat).sum(axis=0)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        # The cache is spent, so dx is built in xhat's rows.
        dx = xhat
        dx *= -dgamma / n
        dx += dy
        dx -= dbeta / n
        dx *= self.gamma.value * inv_std
        return dx

    def parameters(self):
        yield "gamma", self.gamma
        yield "beta", self.beta


class ReLU:
    """max(x, 0), written into x itself; backward masks dy in place (see
    the module docstring)."""

    def forward(self, x, train: bool):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0, out=x)

    def backward(self, dy):
        mask, self._mask = self._mask, None
        return np.multiply(dy, mask, out=dy)

    def parameters(self):
        return iter(())


class Sequential:
    def __init__(self, *modules):
        self.modules = list(modules)

    def forward(self, x, train: bool):
        for m in self.modules:
            x = m.forward(x, train)
        return x

    def backward(self, dy):
        for m in reversed(self.modules):
            dy = m.backward(dy)
        return dy

    def parameters(self) -> Iterator[Tuple[str, Param]]:
        for i, m in enumerate(self.modules):
            for name, p in m.parameters():
                yield f"{i}.{name}", p


def mlp(widths, rng) -> Sequential:
    """Stack of Linear+BN+ReLU per consecutive width pair."""
    modules = []
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        modules += [Linear(w_in, w_out, rng), BatchNorm(w_out), ReLU()]
    return Sequential(*modules)
