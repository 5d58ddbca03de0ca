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

phi's first BatchNorm (Ioffe & Szegedy, arXiv 1502.03167) runs on the
vertices too. Over the E edge rows (c, n), let deg and indeg count the rows
that start and that end at each vertex, A (V x V) count the rows from i to
j, and write deg X for the deg-weighted sum of the rows of X. The batch
statistics of the pre-activation are

    mean = (deg (P + b) + indeg Q) / E,
    var  = (deg P~^2 + indeg Q~^2 + 2 sum_i P~[i] (A Q~)[i]) / E,

where P~ = P + b - deg (P + b) / E and Q~ = Q - indeg Q / E are the two
halves centred over the rows. They are computed from x less its
deg-weighted mean, so that an offset common to the rows of x cancels
before the products and not in P~ and Q~. With s = gamma inv_std the
normalized rows are P'[c] + Q'[n], where P' = P~ s + beta and Q' = Q~ s;
eval mode folds the running statistics the same way. For the adjoint, let
T_c and T_n (V x H) be the sums of the gradient at the BatchNorm's output
onto centers and neighbors. Then

    dbeta  = sum of the rows of T_c,
    dgamma = inv_std (sum_i T_c[i] P~[i] + sum_i T_n[i] Q~[i]),
    S_c    = s (T_c - deg (dbeta + inv_std dgamma P~) / E - inv_std dgamma (A Q~) / E),
    S_n    = s (T_n - indeg (dbeta + inv_std dgamma Q~) / E - inv_std dgamma (A^T P~) / E).

S_c and S_n each sum to zero over the vertices, so the centred x gives dW_a
and dW_b as well. No E x 2F concatenated input, nor its gradient, nor a
normalized E x H xhat, is ever formed: the per-edge work starts at phi's
first ReLU, on P'[c] + Q'[n].

Between forward and backward a train-mode branch keeps only the block input
x, which the two branches of a block share, the level's PreparedEdges, which
every branch on the level shares, and the per-channel inv_std. phi's second
BatchNorm and last ReLU keep their xhat and mask, E x O each, which only the
second Linear's product could rebuild. The E x H arrays that phi's first ReLU and second Linear keep
are dropped after forward (`release`), as are P~ and Q~; they set the peak
memory of a train step. Backward rebuilds them from x with forward's own
NumPy operations in forward's order: P~ and Q~ (two V x F x H products),
P' over Q', one `pair_sums` for the first ReLU's input, and the ReLU itself
for its mask and the second Linear's input (`keep`). The parameters, x and
the edges are unchanged in between, so every rebuilt float equals the one
forward had, bit for bit, and so do the gradients; the cost is those
products over again in each branch's backward.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse

from ..graph.neighborhoods import EdgeSet, incidence_sum, scatter_incidence
from .layers import BN_EPS, BatchNorm, Linear, Sequential, mlp


class PreparedEdges:
    """The edge rows (centers[k], nbrs[k]) of one level, centers ascending,
    and the operators over them that every branch on the level shares.

    len() is the number of rows. Each operator is built on first use and
    kept; each scatter adds in ascending row order, bit-identical to
    scatter_sum.
    """

    def __init__(self, centers: np.ndarray, nbrs: np.ndarray, num_vertices: int):
        if np.any(centers[1:] < centers[:-1]):
            raise ValueError("edge rows must be grouped by ascending center")
        self.centers = centers
        self.nbrs = nbrs
        self.num_vertices = num_vertices
        self.out_degree = np.bincount(centers, minlength=num_vertices).astype(np.float64)
        self.in_degree = np.bincount(nbrs, minlength=num_vertices).astype(np.float64)
        self.inv_counts = 1.0 / self.out_degree

    def __len__(self):
        return len(self.centers)

    @cached_property
    def _center_incidence(self) -> sparse.csc_matrix:
        return scatter_incidence(self.centers, self.num_vertices)

    @cached_property
    def _pair_incidence(self) -> sparse.csc_matrix:
        """The scatter of each row onto its center and onto num_vertices plus
        its neighbor."""
        v = self.num_vertices
        return scatter_incidence(np.column_stack([self.centers, self.nbrs + v]), 2 * v)

    @cached_property
    def _pair_gather(self) -> sparse.csr_matrix:
        return self._pair_incidence.T

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """A[i, j]: the number of rows from i to j."""
        v = self.num_vertices
        indptr = np.zeros(v + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.centers, minlength=v), out=indptr[1:])
        return sparse.csr_matrix((np.ones(len(self)), self.nbrs.astype(np.int32), indptr),
                                 shape=(v, v))

    @cached_property
    def adjacency_t(self) -> sparse.csc_matrix:
        return self.adjacency.T

    def sum_to_centers(self, values: np.ndarray) -> np.ndarray:
        """scatter_sum(values, centers, num_vertices)."""
        return incidence_sum(self._center_incidence, values)

    def sum_to_both(self, values: np.ndarray) -> np.ndarray:
        """scatter_sum of the rows onto their centers (the first num_vertices
        rows of the result) and onto their neighbors (the rest)."""
        return incidence_sum(self._pair_incidence, values)

    def pair_sums(self, stacked: np.ndarray) -> np.ndarray:
        """stacked[centers] + stacked[num_vertices + nbrs], without the
        intermediate E-row gathers."""
        return self._pair_gather @ stacked


def prepared_edges(edges: EdgeSet) -> PreparedEdges:
    """The edge rows of an EdgeSet, center by center.

    Vertices with an empty neighbor list get a self-loop so the mean stays
    defined.
    """
    degrees = edges.degrees
    counts = np.maximum(degrees, 1)
    centers = np.repeat(np.arange(len(edges), dtype=np.int64), counts)
    nbrs = centers.copy()
    nbrs[np.repeat(degrees > 0, counts)] = edges.indices
    return PreparedEdges(centers, nbrs, len(edges))


def _column_dot(a, b):
    return np.einsum("ij,ij->j", a, b)


class EdgeConvBranch:
    """One branch (geodesic or Euclidean) of a dual block.

    phi is Linear, BN, ReLU, Linear, BN, ReLU. Its first Linear and BN are
    held as `vertex_linear` and `vertex_bn` and run per vertex; `phi` holds
    the rest, which runs per edge. Parameters keep the names of the whole
    stack: `phi.0.*` is the vertex Linear, `phi.1.*` the vertex BN, `phi.2`
    onwards the per-edge modules.
    """

    def __init__(self, in_width, hidden, out, rng, relative=False):
        self.relative = relative
        self.in_width = in_width
        self.out_width = out
        phi_in = in_width if relative else 2 * in_width
        first, bn, *rest = mlp((phi_in, hidden, out), rng).modules
        self.vertex_linear: Linear = first
        self.vertex_bn: BatchNorm = bn
        self.phi = Sequential(*rest)
        self._cache = None

    def _split_weight(self):
        """(W_a - W_b, W_b): the weights acting on x_i and on x_j."""
        w = self.vertex_linear.weight.value
        w_b = w[-self.in_width:]
        return (-w_b if self.relative else w[:self.in_width] - w_b), w_b

    def _centred(self, x, edges: PreparedEdges):
        """Train mode: x less its deg-weighted mean, P~, Q~ and the batch mean
        of P + Q (bias excluded), as in the module docstring."""
        w_center, w_b = self._split_weight()
        n = len(edges)
        x_mean = edges.out_degree @ x / n
        centred = x - x_mean
        p = centred @ w_center
        q = centred @ w_b
        p_mean = edges.out_degree @ p / n
        q_mean = edges.in_degree @ q / n
        p -= p_mean
        q -= q_mean
        return centred, p, q, x_mean @ (w_center + w_b) + p_mean + q_mean

    def _fold(self, p, q, scale):
        """P' above Q', so that one sparse product gathers P'[c] + Q'[n]."""
        v = p.shape[0]
        folded = np.empty((2 * v, p.shape[1]))
        np.multiply(p, scale, out=folded[:v])
        folded[:v] += self.vertex_bn.beta.value
        np.multiply(q, scale, out=folded[v:])
        return folded

    def forward(self, x, edges: PreparedEdges, train: bool):
        bn = self.vertex_bn
        bias = self.vertex_linear.bias.value
        if train:
            n = len(edges)
            _, p, q, mean = self._centred(x, edges)
            aq = edges.adjacency @ q
            var = (edges.out_degree @ (p * p) + edges.in_degree @ (q * q)
                   + 2.0 * _column_dot(p, aq)) / n
            del aq
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            bn.track(mean + bias, var, n)
            scale = bn.gamma.value * inv_std
            self._cache = (x, edges, inv_std)
        else:
            w_center, w_b = self._split_weight()
            p = x @ w_center
            p += bias - bn.running_mean
            q = x @ w_b
            scale = bn.gamma.value / np.sqrt(bn.running_var + BN_EPS)
        y = self.phi.forward(edges.pair_sums(self._fold(p, q, scale)), train)
        if train:
            # Backward rebuilds these E x H arrays from x (module docstring).
            relu, linear = self.phi.modules[:2]
            relu.release()
            linear.release()
        y = edges.sum_to_centers(y)
        y *= edges.inv_counts[:, None]
        return y

    def backward(self, dy):
        x, edges, inv_std = self._cache
        self._cache = None
        bn = self.vertex_bn
        scale = bn.gamma.value * inv_std
        # Rebuild what forward dropped, with forward's operations in its order.
        centred, p, q, _ = self._centred(x, edges)
        relu, linear = self.phi.modules[:2]
        linear.keep(relu.forward(edges.pair_sums(self._fold(p, q, scale)), train=True))
        g = self.phi.backward((dy * edges.inv_counts[:, None])[edges.centers])
        v = x.shape[0]
        s = edges.sum_to_both(g)
        del g
        s_c, s_n = s[:v], s[v:]

        n = len(edges)
        dbeta = s_c.sum(axis=0)
        dgamma = inv_std * (_column_dot(s_c, p) + _column_dot(s_n, q))
        bn.gamma.grad += dgamma
        bn.beta.grad += dbeta
        # T_c and T_n become S_c and S_n in place: T - degree (shift + tilt
        # own) - tilt (the other half through A), times gamma inv_std.
        shift, tilt = dbeta / n, inv_std * dgamma / n
        for t, own, other, degree in ((s_c, p, edges.adjacency @ q, edges.out_degree),
                                      (s_n, q, edges.adjacency_t @ p, edges.in_degree)):
            correction = own * tilt
            correction += shift
            correction *= degree[:, None]
            other *= tilt
            correction += other
            t -= correction
        s *= scale

        w_center, w_b = self._split_weight()
        dx = s_c @ w_center.T
        dx += s_n @ w_b.T
        # S_c and S_n each sum to zero over the vertices, so the centred x
        # gives the weight gradient that x itself would.
        center_grad = centred.T @ s_c
        weight_grad = self.vertex_linear.weight.grad
        if not self.relative:
            weight_grad[:self.in_width] += center_grad
        weight_grad[-self.in_width:] += centred.T @ s_n - center_grad
        self.vertex_linear.bias.grad += s_c.sum(axis=0)
        return dx

    def named_modules(self):
        """phi's modules under their names in the whole stack."""
        yield "phi.0", self.vertex_linear
        yield "phi.1", self.vertex_bn
        for i, m in enumerate(self.phi.modules, start=2):
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

    def __init__(self, in_width, geo_widths, euc_widths, rng, relative=False):
        geo_hidden, geo_out = geo_widths
        euc_hidden, euc_out = euc_widths
        self.geodesic: Optional[EdgeConvBranch] = None
        self.euclidean: Optional[EdgeConvBranch] = None
        if geo_out > 0:
            self.geodesic = EdgeConvBranch(in_width, geo_hidden, geo_out, rng, relative)
        if euc_out > 0:
            self.euclidean = EdgeConvBranch(in_width, euc_hidden, euc_out, rng, relative)
        if self.geodesic is None and self.euclidean is None:
            raise ValueError("dual block needs at least one branch")
        self.in_width = in_width
        self.out_width = geo_out + euc_out
        self.residual = in_width == self.out_width

    def forward(self, x, geo_edges, euc_edges, train: bool):
        parts = []
        if self.geodesic is not None:
            parts.append(self.geodesic.forward(x, geo_edges, train))
        if self.euclidean is not None:
            parts.append(self.euclidean.forward(x, euc_edges, train))
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
