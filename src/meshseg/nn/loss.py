"""Masked softmax cross-entropy over labeled vertices."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..mesh.core import UNLABELED


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross entropy over labeled vertices and its gradient wrt logits.

    UNLABELED vertices contribute neither loss nor gradient. Both are
    computed in float64; the gradient comes back in float32 for float32
    logits, so that the network's backward runs in its forward's dtype, and
    in float64 otherwise.
    """
    dtype = np.float32 if np.asarray(logits).dtype == np.float32 else np.float64
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels disagree in length")
    mask = labels != UNLABELED
    n = int(mask.sum())
    if n == 0:
        raise ValueError("no labeled vertex")

    z = logits[mask]
    y = labels[mask]
    z = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    loss = float((logsumexp - z[np.arange(n), y]).mean())

    softmax = np.exp(z - logsumexp[:, None])
    softmax[np.arange(n), y] -= 1.0
    grad = np.zeros_like(logits)
    grad[mask] = softmax / n
    return loss, grad.astype(dtype, copy=False)
