"""Edge convolution over per-vertex features and its dual-branch block.

The per-vertex update averages an MLP applied to [x_i, x_j - x_i] over the
neighbors j of i. The relative variant feeds only x_j - x_i, making the
layer invariant to global translations of the input rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.neighborhoods import EdgeSet, scatter_sum
from .layers import BN_EPS, BN_MOMENTUM, Param, Sequential, mlp


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
    """One branch (geodesic or Euclidean) of a dual block."""

    def __init__(self, in_width, hidden, out, rng, relative=False,
                 momentum=BN_MOMENTUM, eps=BN_EPS):
        self.relative = relative
        self.in_width = in_width
        self.out_width = out
        phi_in = in_width if relative else 2 * in_width
        self.phi: Sequential = mlp((phi_in, hidden, out), rng, momentum, eps)
        self._cache = None

    def forward(self, x, centers, nbrs, inv_counts, train: bool):
        diff = x[nbrs] - x[centers]
        h = diff if self.relative else np.concatenate([x[centers], diff], axis=1)
        z = self.phi.forward(h, train)
        y = scatter_sum(z, centers, x.shape[0])
        y *= inv_counts[:, None]
        if train:
            self._cache = (x.shape, centers, nbrs, inv_counts)
        return y

    def backward(self, dy):
        x_shape, centers, nbrs, inv_counts = self._cache
        dz = (dy * inv_counts[:, None])[centers]
        dh = self.phi.backward(dz)
        # h = [x_i, x_j - x_i]: x_i collects dh's first half minus its second
        # half, x_j the second half. Scattering whole rows avoids copying halves.
        v, f = x_shape
        if self.relative:
            return scatter_sum(dh, nbrs, v) - scatter_sum(dh, centers, v)
        to_centers = scatter_sum(dh, centers, v)
        dx = to_centers[:, :f] - to_centers[:, f:]
        del to_centers
        dx += scatter_sum(dh, nbrs, v)[:, f:]
        return dx

    def parameters(self):
        for name, p in self.phi.parameters():
            yield f"phi.{name}", p


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
