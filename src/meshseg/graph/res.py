"""Random edge sampling of oversized neighborhoods.

Neighborhoods of size at most T are kept intact; larger ones keep each
edge independently with probability (n - (T-1))^(-1/log2(T+1)), which is
1 at n = T and exactly 0.5 at n = 2T.
"""

from __future__ import annotations

import numpy as np

from .neighborhoods import EdgeSet


def sampling_probability(n: int, T: int) -> float:
    """Keep probability for one edge of a neighborhood of size n."""
    if T < 1:
        raise ValueError("threshold T must be >= 1")
    if n < 0:
        raise ValueError("neighborhood size must be non-negative")
    if n <= T:
        return 1.0
    # Written as a power of two so that n = 2T yields exactly 0.5: the
    # exponent becomes -log2(T+1)/log2(T+1) = -1 without rounding error.
    return float(2.0 ** (-np.log2(n - (T - 1)) / np.log2(T + 1)))


def res_sample(edges: EdgeSet, T: int, seed: int) -> EdgeSet:
    """Thin oversized neighborhoods, independently per vertex.

    Deterministic for a fixed seed; vertex i draws from its own
    counter-based stream, Philox keyed by seed with counter [0, 0, 0, i],
    so results do not depend on evaluation order. Edge k of the row is
    kept iff the k-th draw is below the keep probability. A vertex may end
    up with an empty neighbor list; downstream consumers fall back to a
    self-loop in that case.
    """
    if T < 1:
        raise ValueError("threshold T must be >= 1")
    degrees = edges.degrees
    keep = np.ones(edges.num_edges, dtype=bool)
    bit_generator = np.random.Philox(key=np.uint64(seed))
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # counter 0 and an empty buffer
    for i in np.flatnonzero(degrees > T):
        n = int(degrees[i])
        state["state"]["counter"][3] = i
        bit_generator.state = state
        start = edges.indptr[i]
        keep[start:start + n] = rng.random(n) < sampling_probability(n, T)
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    return EdgeSet.from_csr(kept_before[edges.indptr], edges.indices[keep])
