"""Edge convolution over per-vertex features and its dual-branch block.

The per-vertex update averages an MLP phi applied to [x_i, x_j - x_i] over
the neighbors j of i. The relative variant feeds only x_j - x_i, making the
layer invariant to global translations of the input rows.

phi's first Linear runs once per vertex, not once per edge (the EdgeConv
decomposition of DGCNN, Wang et al., arXiv 1801.07829). With its weight W
split into the rows W_a that act on x_i and W_b that act on x_j - x_i,

    [x_i, x_j - x_i] W + b = x_i (W_a - W_b) + x_j W_b + b = P[i] + Q[j] + b,

where P = x (W_a - W_b) and Q = x W_b are V x H. The relative variant is the
same formula with W_a = 0. For the adjoint, let G (E x H) be the gradient of
the per-edge pre-activation and S_c, S_n (V x H) its sums onto the center
and the neighbor vertex of each edge. Then

    dW_a = x^T S_c,    dW_b = x^T (S_n - S_c),    db = sum of the rows of S_c,
    dx   = S_c (W_a - W_b)^T + S_n W_b^T.

No E x 2F concatenated input, nor its gradient, is ever formed: the per-edge
work starts at phi's first BatchNorm.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.neighborhoods import EdgeSet, scatter_sum
from .layers import BN_EPS, BN_MOMENTUM, Linear, Sequential, mlp


def prepared_edges(edges: EdgeSet):
    """Per-edge (centers, neighbors) and per-vertex inverse counts.

    Vertices with an empty neighbor list get a self-loop so the mean stays
    defined.
    """
    degrees = edges.degrees
    counts = np.maximum(degrees, 1)
    centers = np.repeat(np.arange(len(edges), dtype=np.int64), counts)
    nbrs = centers.copy()
    nbrs[np.repeat(degrees > 0, counts)] = edges.indices
    return centers, nbrs, 1.0 / counts


class EdgeConvBranch:
    """One branch (geodesic or Euclidean) of a dual block.

    phi is Linear, BN, ReLU, Linear, BN, ReLU. Its first Linear is held as
    `vertex_linear` and runs per vertex; `phi` holds the rest, which runs per
    edge. Parameters keep the names of the whole stack: `phi.0.*` is the
    vertex Linear, `phi.1.*` onwards the per-edge modules.
    """

    def __init__(self, in_width, hidden, out, rng, relative=False,
                 momentum=BN_MOMENTUM, eps=BN_EPS):
        self.relative = relative
        self.in_width = in_width
        self.out_width = out
        phi_in = in_width if relative else 2 * in_width
        first, *rest = mlp((phi_in, hidden, out), rng, momentum, eps).modules
        self.vertex_linear: Linear = first
        self.phi = Sequential(*rest)
        self._cache = None

    def _split_weight(self):
        """(W_a - W_b, W_b): the weights acting on x_i and on x_j."""
        w = self.vertex_linear.weight.value
        w_b = w[-self.in_width:]
        return (-w_b if self.relative else w[:self.in_width] - w_b), w_b

    def forward(self, x, centers, nbrs, inv_counts, train: bool):
        w_center, w_b = self._split_weight()
        p = x @ w_center
        p += self.vertex_linear.bias.value
        pre = p[centers]
        pre += (x @ w_b)[nbrs]
        z = self.phi.forward(pre, train)
        y = scatter_sum(z, centers, x.shape[0])
        y *= inv_counts[:, None]
        if train:
            self._cache = (x, centers, nbrs, inv_counts)
        return y

    def backward(self, dy):
        x, centers, nbrs, inv_counts = self._cache
        self._cache = None
        g = self.phi.backward((dy * inv_counts[:, None])[centers])
        v = x.shape[0]
        s_c = scatter_sum(g, centers, v)
        s_n = scatter_sum(g, nbrs, v)
        del g
        w_center, w_b = self._split_weight()
        dx = s_c @ w_center.T
        dx += s_n @ w_b.T
        weight_grad = self.vertex_linear.weight.grad
        if not self.relative:
            weight_grad[:self.in_width] += x.T @ s_c
        s_n -= s_c
        weight_grad[-self.in_width:] += x.T @ s_n
        self.vertex_linear.bias.grad += s_c.sum(axis=0)
        return dx

    def named_modules(self):
        """phi's modules under their names in the whole stack."""
        yield "phi.0", self.vertex_linear
        for i, m in enumerate(self.phi.modules, start=1):
            yield f"phi.{i}", m

    def parameters(self):
        for prefix, m in self.named_modules():
            for name, p in m.parameters():
                yield f"{prefix}.{name}", p


class DualBlock:
    """Parallel geodesic/Euclidean edge convolutions, channel-concatenated.

    A branch with zero output width is omitted entirely, which reduces the
    block to its single-branch form. When the input width equals the total
    output width, the input is added back (residual).
    """

    def __init__(self, in_width, geo_widths, euc_widths, rng, relative=False,
                 momentum=BN_MOMENTUM, eps=BN_EPS):
        geo_hidden, geo_out = geo_widths
        euc_hidden, euc_out = euc_widths
        self.geodesic: Optional[EdgeConvBranch] = None
        self.euclidean: Optional[EdgeConvBranch] = None
        if geo_out > 0:
            self.geodesic = EdgeConvBranch(in_width, geo_hidden, geo_out, rng,
                                           relative, momentum, eps)
        if euc_out > 0:
            self.euclidean = EdgeConvBranch(in_width, euc_hidden, euc_out, rng,
                                            relative, momentum, eps)
        if self.geodesic is None and self.euclidean is None:
            raise ValueError("dual block needs at least one branch")
        self.in_width = in_width
        self.out_width = geo_out + euc_out
        self.residual = in_width == self.out_width

    def forward(self, x, geo_edges, euc_edges, train: bool):
        parts = []
        if self.geodesic is not None:
            parts.append(self.geodesic.forward(x, *geo_edges, train))
        if self.euclidean is not None:
            parts.append(self.euclidean.forward(x, *euc_edges, train))
        y = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        if self.residual:
            y = y + x
        return y

    def backward(self, dy):
        dx = dy if self.residual else 0.0
        if self.geodesic is not None and self.euclidean is not None:
            split = self.geodesic.out_width
            dx = dx + self.geodesic.backward(dy[:, :split])
            dx = dx + self.euclidean.backward(dy[:, split:])
        elif self.geodesic is not None:
            dx = dx + self.geodesic.backward(dy)
        else:
            dx = dx + self.euclidean.backward(dy)
        return dx

    def parameters(self):
        if self.geodesic is not None:
            for name, p in self.geodesic.parameters():
                yield f"geo.{name}", p
        if self.euclidean is not None:
            for name, p in self.euclidean.parameters():
                yield f"euc.{name}", p
