"""Minimal dense layers with explicit reverse-mode gradients.

Each module caches what its backward pass needs during forward(train=True),
accumulates parameter gradients into Param.grad and drops the cache;
backward returns the gradient wrt the module input and is defined once per
train-mode forward. A caller that can rebuild a Linear's input, and would
rather spend the time than the memory, drops it after forward with
`release()` and restores it before backward with `keep(x)`. A ReLU run
with train=False keeps no mask, and a train forward on its rebuilt input
makes it before backward. The edge convolution does both. ReLU overwrites
its input in forward and its upstream gradient in backward, so neither
array's old values may be read again by anyone else: in `mlp` and the
network head the input is the output of a BatchNorm, and the gradient that
of a Linear; in the edge convolution either can be one of the level's
scratch arrays, which no one reads again until the next gather or adjoint
writes it (nn/edgeconv.py).

A module computes in the dtype of its input, float32 or float64. Its
parameters, their gradients and the BatchNorm running statistics stay
float64, as the master weights of mixed-precision training (Micikevicius
et al., arXiv 1710.03740): each call casts the parameter values it uses to
the input's dtype with `cast`, which hands back the float64 array itself
for float64 input, and gradients accumulate into the float64 `Param.grad`.

Eval mode folds every BatchNorm into the product before it (Ioffe &
Szegedy, arXiv 1502.03167): with running statistics the BatchNorm is the
affine map x s + t of `BatchNorm.eval_affine`, so a Linear followed by one
is the single product x (W s) + (b s + t), and `Sequential.forward` runs
such a pair that way. The fold is rebuilt from the current parameters on
every call. Train mode takes every sum over rows, the column sums of the
BatchNorm statistics and of the bias and beta gradients, as one BLAS
product `column_sums(x)` = ones @ x.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def column_sums(x: np.ndarray) -> np.ndarray:
    """The sum of the rows of a 2-D array, as the product ones @ x."""
    return np.ones(x.shape[0], dtype=x.dtype) @ x


def cast(value: np.ndarray, like: np.ndarray) -> np.ndarray:
    """value in the dtype of like; value itself when they agree."""
    return value.astype(like.dtype, copy=False)


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
        y = x @ cast(self.weight.value, x)
        y += cast(self.bias.value, x)
        return y

    def keep(self, x):
        """Keep x for backward, as forward(x, train=True) does, without
        computing the output."""
        self._x = x

    def release(self):
        """Drop the kept input; keep() must precede the next backward."""
        self._x = None

    def backward(self, dy):
        x, self._x = self._x, None
        self.weight.grad += x.T @ dy
        self.bias.grad += column_sums(dy)
        return dy @ cast(self.weight.value, x).T

    def folded(self, bn: "BatchNorm"):
        """The weight and bias of this Linear followed by bn in eval mode, in
        float64."""
        scale, shift = bn.eval_affine()
        bias = self.bias.value * scale
        bias += shift
        return self.weight.value * scale, bias

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
            mean = column_sums(x) / n
            xhat = x - mean
            var = np.einsum("ij,ij->j", xhat, xhat) / n
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat *= inv_std
            self._cache = (xhat, inv_std)
            self.track(mean, var, n)
            y = xhat * cast(self.gamma.value, x)
            y += cast(self.beta.value, x)
            return y
        scale, shift = self.eval_affine()
        y = x * cast(scale, x)
        y += cast(shift, x)
        return y

    def eval_affine(self):
        """(scale, shift) of the eval map x -> x scale + shift, from the
        running statistics."""
        scale = self.gamma.value / np.sqrt(self.running_var + BN_EPS)
        return scale, self.beta.value - self.running_mean * scale

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
        dbeta = column_sums(dy)
        dgamma = np.einsum("ij,ij->j", dy, xhat)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        # The cache is spent, so dx is built in xhat's rows.
        dx = xhat
        dx *= -dgamma / n
        dx += dy
        dx -= dbeta / n
        dx *= cast(self.gamma.value, dx) * inv_std
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


class Container:
    """A module built of others. `named_modules()` yields (dotted name,
    leaf) for every Linear, BatchNorm and ReLU under it, in parameter
    order; parameters, running statistics and checkpoint tensors all take
    their names from it."""

    def named_modules(self) -> Iterator[Tuple[str, object]]:
        raise NotImplementedError

    def parameters(self) -> Iterator[Tuple[str, Param]]:
        for prefix, m in self.named_modules():
            for name, p in m.parameters():
                yield f"{prefix}.{name}", p


def prefixed(prefix: str, container: Container):
    """The container's named modules with `prefix.` before each name."""
    return ((f"{prefix}.{name}", m) for name, m in container.named_modules())


class Sequential(Container):
    def __init__(self, *modules):
        self.modules = list(modules)

    def forward(self, x, train: bool):
        """The modules in order; in eval mode a Linear followed by a
        BatchNorm runs as one product with the BatchNorm folded in."""
        modules, i = self.modules, 0
        while i < len(modules):
            m, after = modules[i], modules[i + 1] if i + 1 < len(modules) else None
            if not train and isinstance(m, Linear) and isinstance(after, BatchNorm):
                weight, bias = m.folded(after)
                x = x @ cast(weight, x)
                x += cast(bias, x)
                i += 2
            else:
                x = m.forward(x, train)
                i += 1
        return x

    def backward(self, dy):
        for m in reversed(self.modules):
            dy = m.backward(dy)
        return dy

    def named_modules(self):
        return ((str(i), m) for i, m in enumerate(self.modules))


def mlp(widths, rng) -> Sequential:
    """Stack of Linear+BN+ReLU per consecutive width pair."""
    modules = []
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        modules += [Linear(w_in, w_out, rng), BatchNorm(w_out), ReLU()]
    return Sequential(*modules)
