"""Adam with the step-decayed learning-rate schedule used for training."""

from __future__ import annotations

import numpy as np

BASE_LR = 1e-3
LR_DECAY = 0.5
LR_DECAY_EPOCHS = 40
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def learning_rate(epoch: int, base_lr: float = BASE_LR) -> float:
    """base_lr * LR_DECAY^floor(epoch / LR_DECAY_EPOCHS)."""
    return base_lr * LR_DECAY ** (epoch // LR_DECAY_EPOCHS)


class Adam:
    """Standard Adam with bias correction over a network's Param objects."""

    def __init__(self, params, lr=BASE_LR):
        self.params = list(params)  # (name, Param) pairs
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.value) for name, p in self.params}
        self.v = {name: np.zeros_like(p.value) for name, p in self.params}

    def step(self):
        self.t += 1
        bias1 = 1 - BETA1 ** self.t
        bias2 = 1 - BETA2 ** self.t
        for name, p in self.params:
            g = p.grad
            m = self.m[name] = BETA1 * self.m[name] + (1 - BETA1) * g
            v = self.v[name] = BETA2 * self.v[name] + (1 - BETA2) * g * g
            p.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
