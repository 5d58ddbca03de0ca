"""Edge convolution over per-vertex features and its dual-branch block.

The per-vertex update averages an MLP phi applied to [x_i, x_j - x_i] over
the neighbors j of i. The relative variant feeds only x_j - x_i, making the
layer invariant to global translations of the input rows.

phi's first Linear runs once per vertex, not once per edge (the EdgeConv
decomposition of DGCNN, Wang et al., arXiv 1801.07829). With its weight W
split into the rows W_a that act on x_i and W_b that act on x_j - x_i,

    [x_i, x_j - x_i] W + b = x_i (W_a - W_b) + x_j W_b + b = P[i] + Q[j] + b,

and one product x [W_a - W_b | W_b] gives P | Q (V x 2H; the relative
variant has W_a = 0). Its rows read as 2V interleaved rows z, with
z[2i] = P[i] and z[2i+1] = Q[i]. Over the E edge rows (c, n), let M
(2V x E) send edge k to rows 2c_k and 2n_k + 1. Then the per-edge
pre-activation is M^T z + b, the gather `pairs.gather`, and M scatters a
per-edge gradient back onto the rows of z, `pairs.sum`.

phi's first BatchNorm (Ioffe & Szegedy, arXiv 1502.03167) takes its batch
statistics from those gathered rows. Train mode centres each half of z
before the gather: x less its out-degree-weighted mean, so that an offset
common to the rows of x cancels before the product, then P less its
out-degree-weighted mean and Q less its in-degree-weighted mean. The
gathered rows u = M^T z then sum to zero, the batch mean is that of P + Q
plus b, and

    var = sum_k u_k^2 / E,    BN output = u s + beta,   s = gamma inv_std,

with the scale and shift applied to u in place. Eval mode folds the
BatchNorm into the product instead: its eval map is v -> v s + t
(`BatchNorm.eval_affine`), so with W' = W s and b' = b s + t

    z = x [W'_a - W'_b | W'_b] + [b' | 0],

one V x F x 2H product and one 2H shift row, and M^T z is the BatchNorm's
output. phi's second BatchNorm folds into its Linear in `Sequential.forward`,
so an eval forward makes no E-row BatchNorm pass or array.

For the adjoint, let g (E x H) be the gradient at the BatchNorm's output,
T = M g, and deg the interleaved (out, in) degrees of the rows of z. Then

    dbeta  = sum of the even rows of T,
    dgamma = inv_std sum_r T[r] z[r],
    S      = s (T - deg dbeta / E - (inv_std dgamma / E) M u)

is the gradient at z. Read back as V x 2H, it gives

    dx = S [W_a - W_b | W_b]^T,    [G_P | G_Q] = x^T S,

the gradients of the two halves of the stacked weight, so dW_a = G_P and
dW_b = G_Q - G_P. The even and the odd rows of S each sum to zero, so the
centred x gives the weight gradient as well, and the bias, which feeds a
train-mode BatchNorm, gets the (zero) sum of the even rows; both sums over
rows are `column_sums`, one BLAS product. No E x 2F concatenated input,
nor its gradient, nor a normalized E x H copy of u is ever formed.

Between forward and backward a train-mode branch keeps only the block input
x, which the two branches of a block share, the level's PreparedEdges, which
every branch on the level shares, and the per-channel inv_std. phi's second
BatchNorm and last ReLU keep their xhat and mask, E x O each, which only the
second Linear's product could rebuild. The E x H arrays that phi's first
ReLU and second Linear would keep set the peak memory of a train step: the
ReLU runs without its mask, the Linear drops its input after forward
(`release`), and z is dropped right after the gather. Backward rebuilds
them from x with forward's own NumPy operations in forward's order: z (one
V x F x 2H product), u (one `pairs.gather`), its scale and shift, and the
ReLU itself for its mask and the second Linear's input (`keep`).
M u is taken from the rebuilt u before its scale and shift. The parameters,
x and the edges are unchanged in between, so every rebuilt float equals the
one forward had, bit for bit, and so do the gradients; the cost is that
product and gather over again in each branch's backward. This holds in
float32 as in float64, since the rebuild casts the same float64 parameters
to x's dtype as forward did.

The E-row arrays a level's branches make are written into two scratch
arrays that the level's PreparedEdges holds, rather than fresh ones that
fault in new pages on every call:

- E x H, written by `PreparedEdges.gather`: a train forward's u, an eval
  forward's gathered rows, and backward's rebuilt u. The forward u is dead
  once phi's Linear is `release()`d; the rebuilt u lives until
  `phi.backward` returns; eval rows die inside phi's folded product.
- E x O, written by `PreparedEdges.mean_adjoint`: the gradient at phi's
  output in backward. The last ReLU masks it in place, and it dies inside
  the BatchNorm backward, whose result is built in that BatchNorm's xhat.

No branch reads either array after it returns, and the branches of one
level run one at a time, forward and backward, so each branch can take
both arrays over from the one before it. The geodesic and the Euclidean
edges are separate PreparedEdges, so the two branches of a block never
share scratch. The scratch is built on first use, and again if a call asks
for another width or dtype; it dies with the PreparedEdges, that is with
the forward's edge lists, so nothing persists from one step to the next.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.neighborhoods import EdgeSet, Segments
from .layers import (BN_EPS, BatchNorm, Container, Linear, ReLU, Sequential, cast,
                     column_sums, mlp, prefixed)


class PreparedEdges:
    """The edge rows (centers[k], nbrs[k]) of one level, centers ascending,
    and the segments over them that every branch on the level shares.

    len() is the number of rows. `rows` groups them by center, `pairs` sends
    row k to rows 2 centers[k] and 2 nbrs[k] + 1 of an interleaved array (M
    in the module docstring). `degrees` holds each vertex's (out, in)
    degree, the sizes of those two rows.

    `gather` and `mean_adjoint` write into the level's two E-row scratch
    arrays, held in `scratch` under those names; see the module docstring
    for their lifetimes.
    """

    def __init__(self, centers: np.ndarray, nbrs: np.ndarray, num_vertices: int):
        if np.any(centers[1:] < centers[:-1]):
            raise ValueError("edge rows must be grouped by ascending center")
        self.centers = centers
        self.nbrs = nbrs
        self.rows = Segments(centers, num_vertices)
        self.pairs = Segments(np.column_stack([2 * centers, 2 * nbrs + 1]), 2 * num_vertices)
        self.scratch = {}

    def __len__(self):
        return len(self.centers)

    @property
    def degrees(self) -> np.ndarray:
        return self.pairs.sizes.reshape(-1, 2)

    def _scratch(self, name: str, width: int, dtype) -> np.ndarray:
        """The E x width scratch array `name`, built on first use and again
        when a call asks for another width or dtype."""
        buf = self.scratch.get(name)
        if buf is None or buf.shape[1] != width or buf.dtype != dtype:
            buf = self.scratch[name] = np.empty((len(self), width), dtype=dtype)
        return buf

    def gather(self, z: np.ndarray) -> np.ndarray:
        """`pairs.gather(z)` of a 2V x H array z, written into the E x H scratch."""
        return self.pairs.gather(z, out=self._scratch("gather", z.shape[1], z.dtype))

    def mean_adjoint(self, dy: np.ndarray) -> np.ndarray:
        """`rows.mean_adjoint(dy)` of a V x O array dy, written into the E x O
        scratch."""
        return self.rows.mean_adjoint(dy, out=self._scratch("adjoint", dy.shape[1], dy.dtype))


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


class EdgeConvBranch(Container):
    """One branch (geodesic or Euclidean) of a dual block.

    phi is Linear, BN, ReLU, Linear, BN, ReLU. Its first Linear and BN are
    held as `vertex_linear` and `vertex_bn` and run per vertex. Its first
    ReLU, `edge_relu`, runs on the gathered rows and keeps no mask in a
    train forward, since backward rebuilds it; `phi` holds the rest. Modules
    and parameters keep the names of the whole stack: `phi.0.*` is the
    vertex Linear, `phi.1.*` the vertex BN, `phi.2` the edge ReLU and `phi.3`
    onwards the modules of `phi`.
    """

    def __init__(self, in_width, hidden, out, rng, relative=False):
        self.relative = relative
        self.in_width = in_width
        self.out_width = out
        phi_in = in_width if relative else 2 * in_width
        first, bn, relu, *rest = mlp((phi_in, hidden, out), rng).modules
        self.vertex_linear: Linear = first
        self.vertex_bn: BatchNorm = bn
        self.edge_relu: ReLU = relu
        self.phi = Sequential(*rest)
        self._cache = None

    def _pair_weight(self, w):
        """[W_a - W_b | W_b] (F x 2H) of the first Linear's weight w: x times
        it is P | Q."""
        w_b = w[-self.in_width:]
        return np.concatenate([-w_b if self.relative else w[:self.in_width] - w_b, w_b], axis=1)

    def _weight(self, x):
        """The pair weight of the first Linear, in x's dtype."""
        return cast(self._pair_weight(self.vertex_linear.weight.value), x)

    def _centred(self, x, edges: PreparedEdges, weight):
        """Train mode: x less its out-degree-weighted mean, z with each half
        centred over the rows, and the batch mean of P + Q (bias excluded),
        as in the module docstring."""
        n = len(edges)
        degrees = cast(edges.degrees, x)
        x_mean = degrees[:, 0] @ x / n
        centred = x - x_mean
        halves = (centred @ weight).reshape(len(x), 2, -1)
        half_means = np.einsum("vs,vsh->sh", degrees, halves) / n
        halves -= half_means
        mean = (x_mean @ weight).reshape(2, -1) + half_means
        return centred, halves.reshape(2 * len(x), -1), mean.sum(axis=0)

    def _first_bn(self, x, edges: PreparedEdges, train: bool):
        """The gathered rows after phi's first Linear and BatchNorm, as in the
        module docstring; train mode keeps what backward needs."""
        bn = self.vertex_bn
        if train:
            n = len(edges)
            _, z, mean = self._centred(x, edges, self._weight(x))
            u = edges.gather(z)
            var = np.einsum("ij,ij->j", u, u) / n
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            bn.track(mean + self.vertex_linear.bias.value, var, n)
            self._cache = (x, edges, inv_std)
            u *= cast(bn.gamma.value, u) * inv_std
            u += cast(bn.beta.value, u)
            return u
        weight, bias = self.vertex_linear.folded(bn)
        z = x @ cast(self._pair_weight(weight), x)
        z += cast(np.concatenate([bias, np.zeros_like(bias)]), z)
        return edges.gather(z.reshape(2 * len(x), -1))

    def forward(self, x, edges: PreparedEdges, train: bool):
        # The rows are the level's E x H scratch. The ReLU keeps no mask, and
        # in train mode phi's Linear drops its input: backward rebuilds these
        # E x H arrays from x (module docstring).
        y = self.phi.forward(
            self.edge_relu.forward(self._first_bn(x, edges, train), train=False), train)
        if train:
            self.phi.modules[0].release()
        return edges.rows.mean(y)

    def backward(self, dy):
        x, edges, inv_std = self._cache
        self._cache = None
        bn = self.vertex_bn
        n = len(edges)
        weight = self._weight(x)
        scale = cast(bn.gamma.value, x) * inv_std
        # Rebuild what forward dropped, with forward's operations in its order.
        centred, z, _ = self._centred(x, edges, weight)
        u = edges.gather(z)
        mu = edges.pairs.sum(u)
        u *= scale
        u += cast(bn.beta.value, u)
        self.phi.modules[0].keep(self.edge_relu.forward(u, train=True))
        del u
        g = self.edge_relu.backward(self.phi.backward(edges.mean_adjoint(dy)))
        s = edges.pairs.sum(g)
        del g

        dbeta = column_sums(s[0::2])
        dgamma = inv_std * np.einsum("ij,ij->j", s, z)
        bn.gamma.grad += dgamma
        bn.beta.grad += dbeta
        # s holds T = M g and becomes S in place (module docstring).
        mu *= inv_std * dgamma / n
        s -= mu
        s -= cast(edges.pairs.sizes, s)[:, None] * (dbeta / n)
        s *= scale

        s = s.reshape(len(x), -1)
        dx = s @ weight.T
        grad = centred.T @ s
        hidden = len(scale)
        grad_p, grad_q = grad[:, :hidden], grad[:, hidden:]
        weight_grad = self.vertex_linear.weight.grad
        if not self.relative:
            weight_grad[:self.in_width] += grad_p
        weight_grad[-self.in_width:] += grad_q - grad_p
        self.vertex_linear.bias.grad += column_sums(s[:, :hidden])
        return dx

    def named_modules(self):
        """phi's modules under their names in the whole stack."""
        yield "phi.0", self.vertex_linear
        yield "phi.1", self.vertex_bn
        yield "phi.2", self.edge_relu
        for i, m in enumerate(self.phi.modules, start=3):
            yield f"phi.{i}", m


class DualBlock(Container):
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
        # (name, branch) of the branches present, in channel order.
        self.branches = [(name, b) for name, b in (("geo", self.geodesic),
                                                   ("euc", self.euclidean)) if b is not None]
        if not self.branches:
            raise ValueError("dual block needs at least one branch")
        self.in_width = in_width
        self.out_width = geo_out + euc_out
        self.residual = in_width == self.out_width

    def forward(self, x, geo_edges, euc_edges, train: bool):
        edges = {"geo": geo_edges, "euc": euc_edges}
        parts = [b.forward(x, edges[name], train) for name, b in self.branches]
        y = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        if self.residual:
            y = y + x
        return y

    def backward(self, dy):
        dx = dy if self.residual else 0.0
        start = 0
        for _, b in self.branches:
            dx = dx + b.backward(dy[:, start:start + b.out_width])
            start += b.out_width
        return dx

    def named_modules(self):
        for prefix, b in self.branches:
            yield from prefixed(prefix, b)
