import copy

import numpy as np
import pytest

from meshseg.graph.neighborhoods import EdgeSet, Segments
from meshseg.nn.edgeconv import DualBlock, EdgeConvBranch, PreparedEdges, prepared_edges
from meshseg.nn.layers import BatchNorm, ReLU, Sequential


def random_edge_set(rng, num_vertices, max_degree=4):
    neighbors = []
    for i in range(num_vertices):
        deg = int(rng.integers(1, max_degree + 1))
        others = np.setdiff1d(np.arange(num_vertices), [i])
        neighbors.append(rng.choice(others, size=min(deg, len(others)), replace=False))
    centers = np.repeat(np.arange(num_vertices), [len(n) for n in neighbors])
    return EdgeSet.from_pairs(centers, np.concatenate(neighbors), num_vertices)


def whole_stack(branch):
    """phi's modules, the per-vertex ones included, as one per-row Sequential."""
    return Sequential(*(m for _, m in branch.named_modules()))


def edge_mlp(branch, h):
    """phi in eval mode on rows of [x_i, x_j - x_i] (or x_j - x_i): all its layers per row."""
    return whole_stack(branch).forward(h, train=False)


def branch_oracle(branch, x, edges):
    """Per-vertex mean of phi over neighbor edges, one edge at a time."""
    outputs = np.zeros((x.shape[0], branch.out_width))
    for i, nbrs in enumerate(edges.neighbors):
        nbrs = nbrs if len(nbrs) else np.asarray([i])
        rows = []
        for j in nbrs:
            diff = x[j] - x[i]
            h = diff if branch.relative else np.concatenate([x[i], diff])
            rows.append(edge_mlp(branch, h[None, :])[0])
        outputs[i] = np.mean(rows, axis=0)
    return outputs


def test_prepared_edges_flatten_and_inverse_counts(rng):
    edges = EdgeSet.from_pairs([0, 0, 2], [1, 2, 0], 3)
    prep = prepared_edges(edges)
    # Vertex 1 has no neighbors and receives a self loop.
    assert len(prep) == 4
    assert prep.centers.tolist() == [0, 0, 1, 2]
    assert prep.nbrs.tolist() == [1, 2, 1, 0]
    assert prep.rows.sizes.tolist() == [2, 1, 1]
    assert prep.degrees.tolist() == [[2, 1], [1, 2], [1, 1]]
    # M sends row k to 2 centers[k] and 2 nbrs[k] + 1, one column per row.
    assert prep.pairs.sum(np.eye(4)).tolist() == [
        [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]


def add_at(values, index, count):
    out = np.zeros((count,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def test_prepared_edges_scatters_match_scatter_sum(rng):
    # A multigraph with repeated rows, and vertices that are no row's neighbor.
    v, e = 13, 60
    centers = np.sort(np.concatenate([np.arange(v), rng.integers(0, v, size=e - v)]))
    nbrs = rng.integers(0, v - 2, size=e)
    prep = PreparedEdges(centers, nbrs, v)
    values = rng.normal(size=(e, 4))
    interleaved = rng.normal(size=(2 * v, 4))
    for _ in range(2):  # built on first use, then reused
        assert np.array_equal(prep.rows.sum(values), add_at(values, centers, v))
        both = prep.pairs.sum(values)
        assert np.array_equal(both[0::2], add_at(values, centers, v))
        assert np.array_equal(both[1::2], add_at(values, nbrs, v))
        assert np.array_equal(prep.pairs.gather(interleaved),
                              interleaved[2 * centers] + interleaved[2 * nbrs + 1])
    assert np.array_equal(prep.degrees, np.column_stack(
        [np.bincount(centers, minlength=v), np.bincount(nbrs, minlength=v)]))
    with pytest.raises(ValueError):
        PreparedEdges(centers[::-1], nbrs, v)


def test_forward_matches_double_loop_oracle(rng):
    # Eval mode so that phi is a fixed deterministic function of its input
    # row, which makes the edge-at-a-time oracle exact.
    x = rng.normal(size=(12, 5))
    edges = random_edge_set(rng, 12)
    for relative in (False, True):
        branch = EdgeConvBranch(5, 8, 6, rng, relative=relative)
        got = branch.forward(x, prepared_edges(edges), train=False)
        assert np.allclose(got, branch_oracle(branch, x, edges), atol=1e-12)


def test_equal_features_relative_branch_is_constant(rng):
    # All vertices identical: every difference is zero, so each output row
    # equals phi(0) regardless of the graph.
    x = np.tile(rng.normal(size=(1, 4)), (9, 1))
    edges = random_edge_set(rng, 9)
    branch = EdgeConvBranch(4, 6, 3, rng, relative=True)
    got = branch.forward(x, prepared_edges(edges), train=False)
    expected = edge_mlp(branch, np.zeros((1, 4)))[0]
    assert np.allclose(got, np.tile(expected, (9, 1)), atol=1e-12)


def test_neighbor_order_invariance(rng):
    x = rng.normal(size=(10, 3))
    edges = random_edge_set(rng, 10)
    shuffled = EdgeSet([np.asarray(rng.permutation(n)) for n in edges.neighbors])
    branch = EdgeConvBranch(3, 5, 4, rng)
    a = branch.forward(x, prepared_edges(edges), train=False)
    b = branch.forward(x, prepared_edges(shuffled), train=False)
    assert np.allclose(a, b, atol=1e-12)


def test_duplicated_neighbor_lists_leave_output_unchanged(rng):
    # Mean aggregation: repeating every neighbor the same number of times
    # does not change the per-vertex average.
    x = rng.normal(size=(8, 3))
    edges = random_edge_set(rng, 8)
    doubled = EdgeSet([np.concatenate([n, n]) for n in edges.neighbors])
    branch = EdgeConvBranch(3, 4, 4, rng)
    a = branch.forward(x, prepared_edges(edges), train=False)
    b = branch.forward(x, prepared_edges(doubled), train=False)
    assert np.allclose(a, b, atol=1e-12)


def test_relative_branch_translation_invariance(rng):
    x = rng.normal(size=(10, 4))
    edges = random_edge_set(rng, 10)
    branch = EdgeConvBranch(4, 6, 5, rng, relative=True)
    prep = prepared_edges(edges)
    a = branch.forward(x, prep, train=False)
    b = branch.forward(x + rng.normal(size=(1, 4)) * 10, prep, train=False)
    assert np.allclose(a, b, atol=1e-9)


def test_plain_branch_is_not_translation_invariant(rng):
    x = rng.normal(size=(10, 4))
    edges = random_edge_set(rng, 10)
    branch = EdgeConvBranch(4, 6, 5, rng, relative=False)
    prep = prepared_edges(edges)
    a = branch.forward(x, prep, train=False)
    b = branch.forward(x + 10.0, prep, train=False)
    assert not np.allclose(a, b, atol=1e-6)


def test_dual_block_concatenates_branches(rng):
    x = rng.normal(size=(11, 4))
    geo, euc = random_edge_set(rng, 11), random_edge_set(rng, 11)
    block = DualBlock(4, (6, 3), (5, 2), rng)
    got = block.forward(x, prepared_edges(geo), prepared_edges(euc), train=False)
    expected = np.concatenate(
        [branch_oracle(block.geodesic, x, geo), branch_oracle(block.euclidean, x, euc)],
        axis=1,
    )
    assert got.shape == (11, 5)
    assert np.allclose(got, expected, atol=1e-12)


def test_dual_block_residual_when_widths_match(rng):
    x = rng.normal(size=(7, 6))
    geo, euc = random_edge_set(rng, 7), random_edge_set(rng, 7)
    block = DualBlock(6, (4, 3), (4, 3), rng)
    assert block.residual
    got = block.forward(x, prepared_edges(geo), prepared_edges(euc), train=False)
    expected = x + np.concatenate(
        [branch_oracle(block.geodesic, x, geo), branch_oracle(block.euclidean, x, euc)],
        axis=1,
    )
    assert np.allclose(got, expected, atol=1e-12)


def test_zero_width_branch_reduces_to_single(rng):
    x = rng.normal(size=(9, 3))
    geo, euc = random_edge_set(rng, 9), random_edge_set(rng, 9)
    block = DualBlock(3, (5, 4), (0, 0), rng)
    assert block.euclidean is None
    got = block.forward(x, prepared_edges(geo), prepared_edges(euc), train=False)
    assert np.allclose(got, branch_oracle(block.geodesic, x, geo), atol=1e-12)
    with pytest.raises(ValueError):
        DualBlock(3, (5, 0), (5, 0), rng)


@pytest.mark.parametrize("relative", [False, True])
def test_branch_backward_matches_fd(rng, relative):
    x = rng.normal(size=(8, 3))
    edges = random_edge_set(rng, 8)
    prep = prepared_edges(edges)
    branch = EdgeConvBranch(3, 4, 3, rng, relative=relative)

    def loss():
        return float(np.sin(branch.forward(x, prep, train=True)).sum())

    out = branch.forward(x, prep, train=True)
    for _, p in branch.parameters():
        p.grad[...] = 0.0
    dx = branch.backward(np.cos(out))

    h = 1e-6
    tensors = [("x", x, dx)] + [(n, p.value, p.grad) for n, p in branch.parameters()]
    for _, value, grad in tensors:
        flat, gflat = value.reshape(-1), grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss()
            flat[k] = orig - h
            down = loss()
            flat[k] = orig
            num = (up - down) / (2 * h)
            assert abs(num - gflat[k]) / max(abs(num), abs(gflat[k]), 1e-2) < 1e-5


def test_dual_block_backward_matches_fd(rng):
    x = rng.normal(size=(6, 5))
    geo = prepared_edges(random_edge_set(rng, 6))
    euc = prepared_edges(random_edge_set(rng, 6))
    block = DualBlock(5, (4, 3), (4, 2), rng)
    assert block.residual

    def loss():
        return float(np.sin(block.forward(x, geo, euc, train=True)).sum())

    out = block.forward(x, geo, euc, train=True)
    for _, p in block.parameters():
        p.grad[...] = 0.0
    dx = block.backward(np.cos(out))

    h = 1e-6
    tensors = [("x", x, dx)] + [(n, p.value, p.grad) for n, p in block.parameters()]
    for _, value, grad in tensors:
        flat, gflat = value.reshape(-1), grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss()
            flat[k] = orig - h
            down = loss()
            flat[k] = orig
            num = (up - down) / (2 * h)
            assert abs(num - gflat[k]) / max(abs(num), abs(gflat[k]), 1e-2) < 1e-5


def concatenated_reference(branch, x, edges, train, dy=None):
    """The branch as it ran before phi's first Linear and BatchNorm moved to
    the vertices.

    A copy of the branch runs phi's whole stack per edge on the E x 2F rows
    [x_i, x_j - x_i] (E x F rows x_j - x_i for the relative variant), and its
    backward splits their gradient back onto x_i and x_j. Returns the copy,
    its output and, given dy, dx and the parameter gradients by name.
    """
    ref = copy.deepcopy(branch)
    phi = whole_stack(ref)
    centers, nbrs = edges.centers, edges.nbrs
    diff = x[nbrs] - x[centers]
    h = diff if ref.relative else np.concatenate([x[centers], diff], axis=1)
    y = edges.rows.mean(phi.forward(h, train))
    if dy is None:
        return ref, y, None, None
    for _, p in ref.parameters():
        p.grad[...] = 0.0
    dh = phi.backward(edges.rows.mean_adjoint(dy))
    v, f = x.shape
    to_nbrs = Segments(nbrs, v).sum(dh)
    if ref.relative:
        dx = to_nbrs - edges.rows.sum(dh)
    else:
        to_centers = edges.rows.sum(dh)
        dx = to_centers[:, :f] - to_centers[:, f:] + to_nbrs[:, f:]
    return ref, y, dx, {name: p.grad.copy() for name, p in ref.parameters()}


def assert_relative_close(got, ref, tol=1e-12):
    assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


def randomized_branch(rng, in_width, relative):
    """A branch whose batch norms have non-trivial affine maps and running stats."""
    branch = EdgeConvBranch(in_width, 7, 6, rng, relative=relative)
    for _, m in branch.named_modules():
        if isinstance(m, BatchNorm):
            m.gamma.value = rng.normal(size=m.gamma.value.shape)
            m.beta.value = rng.normal(size=m.beta.value.shape)
            m.running_mean = rng.normal(size=m.running_mean.shape)
            m.running_var = rng.uniform(0.5, 2.0, size=m.running_var.shape)
    return branch


def reference_cases(rng, v, f):
    """(name, x, edges) instances for the vertex-space batch norm."""
    rows = random_edge_set(rng, v).neighbors
    # Every fifth vertex has no neighbors and takes the self-loop row.
    sparse_rows = EdgeSet([n if i % 5 else n[:0] for i, n in enumerate(rows)])
    x = rng.normal(size=(v, f))
    yield "self-loops", x, sparse_rows
    yield "multi-edges", x, EdgeSet([np.repeat(n, rng.integers(1, 4, size=len(n)))
                                     for n in rows])
    # Vertex 0 is a neighbor of every other vertex and centers only its
    # self-loop; the last vertex is nobody's neighbor.
    yield "neighbor-only", x, EdgeSet(
        [np.array([], dtype=np.int64)]
        + [np.append(n[(n != 0) & (n != v - 1)], 0) for n in rows[1:]])
    # A common offset, which the centred statistics must not lose precision to.
    yield "offset", x + OFFSET, sparse_rows


OFFSET = 1e3


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("relative", [False, True])
def test_branch_matches_concatenated_reference(rng, relative, train):
    v, f = 30, 5
    for case, x, edges in reference_cases(rng, v, f):
        prep = prepared_edges(edges)
        if case == "self-loops":
            assert (prep.centers == prep.nbrs).sum() == v // 5
        elif case == "multi-edges":
            pairs = np.column_stack([prep.centers, prep.nbrs])
            assert len(np.unique(pairs, axis=0)) < len(pairs)
        elif case == "neighbor-only":
            assert prep.degrees[0].tolist() == [1, v] and prep.degrees[-1, 1] == 0
        branch = randomized_branch(rng, f, relative)
        dy = rng.normal(size=(v, branch.out_width)) if train else None

        # A train-mode batch norm cancels the offset exactly, and the per-edge
        # reference is accurate to 1e-12 only without it.
        x_ref = x - OFFSET if case == "offset" and train else x
        ref, y_ref, dx_ref, grads_ref = concatenated_reference(branch, x_ref, prep, train, dy)
        y = branch.forward(x, prep, train=train)
        assert_relative_close(y, y_ref)
        if not train:
            continue
        for _, p in branch.parameters():
            p.grad[...] = 0.0
        assert_relative_close(branch.backward(dy), dx_ref)
        for name, p in branch.parameters():
            if name in ("phi.0.bias", "phi.3.bias"):
                # A bias feeding a train-mode batch norm has an exact gradient
                # of zero; both versions hold rounding noise there.
                weight = name.replace("bias", "weight")
                assert np.abs(p.grad).max() <= 1e-12 * np.abs(grads_ref[weight]).max()
                assert np.abs(grads_ref[name]).max() <= 1e-12 * np.abs(grads_ref[weight]).max()
            else:
                assert_relative_close(p.grad, grads_ref[name])


@pytest.mark.parametrize("relative", [False, True])
def test_vertex_batch_norm_tracks_the_per_edge_statistics(rng, relative):
    v, f = 30, 5
    for _, x, edges in reference_cases(rng, v, f):
        prep = prepared_edges(edges)
        branch = randomized_branch(rng, f, relative)
        ref = concatenated_reference(branch, x, prep, train=True)[0]
        branch.forward(x, prep, train=True)
        for m, m_ref in zip(whole_stack(branch).modules, whole_stack(ref).modules):
            if isinstance(m, BatchNorm):
                assert_relative_close(m.running_mean, m_ref.running_mean)
                assert_relative_close(m.running_var, m_ref.running_var)


def test_branch_keeps_the_parameter_layout_of_the_whole_stack(rng):
    branch = EdgeConvBranch(4, 6, 3, rng)
    assert [(name, p.value.shape) for name, p in branch.parameters()] == [
        ("phi.0.weight", (8, 6)), ("phi.0.bias", (6,)),
        ("phi.1.gamma", (6,)), ("phi.1.beta", (6,)),
        ("phi.3.weight", (6, 3)), ("phi.3.bias", (3,)),
        ("phi.4.gamma", (3,)), ("phi.4.beta", (3,)),
    ]
    assert [(name, type(m).__name__) for name, m in branch.named_modules()] == [
        ("phi.0", "Linear"), ("phi.1", "BatchNorm"), ("phi.2", "ReLU"),
        ("phi.3", "Linear"), ("phi.4", "BatchNorm"), ("phi.5", "ReLU"),
    ]
    # The per-edge modules are everything after the first batch norm: the
    # edge ReLU, then phi.
    assert isinstance(branch.edge_relu, ReLU)
    assert [type(m).__name__ for m in branch.phi.modules] == ["Linear", "BatchNorm", "ReLU"]


def test_branch_caches_no_concatenated_rows(rng):
    # Widths chosen so that no cached tensor can be 2F, H or O wide by accident.
    v, f, hidden, out = 20, 5, 7, 3
    x = rng.normal(size=(v, f))
    prep = prepared_edges(random_edge_set(rng, v))
    num_edges = len(prep)
    assert num_edges != v
    branch = EdgeConvBranch(f, hidden, out, rng)
    branch.forward(x, prep, train=True)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from arrays(item)

    owners = [branch, branch.vertex_linear, branch.vertex_bn, branch.edge_relu,
              *branch.phi.modules]
    cached = {id(owner): [a for name, value in vars(owner).items() if name.startswith("_")
                          for a in arrays(value)]
              for owner in owners}
    every = [a for arrays_of_owner in cached.values() for a in arrays_of_owner]
    assert every
    assert not [a.shape for a in every if a.ndim == 2 and a.shape[1] == 2 * f]
    # The branch keeps x and per-channel vectors: no V x H P~, Q~ or P'/Q'.
    assert not [a.shape for a in every if a.ndim == 2 and a.shape[1] == hidden]
    # The only per-edge arrays are the second batch norm's xhat and the last
    # ReLU's mask, both O wide; backward rebuilds the E x H ones.
    per_edge = [a for a in every if len(a) == num_edges]
    assert sorted((a.shape, a.dtype == bool) for a in per_edge) == [
        ((num_edges, out), False), ((num_edges, out), True)]
    bn, relu = branch.phi.modules[1:]
    assert any(a is bn._cache[0] for a in per_edge)
    assert any(a is relu._mask for a in per_edge)


def test_branches_on_one_level_share_its_scratch(rng):
    """Two branches on one PreparedEdges write the same two scratch arrays,
    and give what they give on edges of their own, bit for bit."""
    v, f, hidden, out = 12, 5, 6, 4
    x = rng.normal(size=(v, f))
    edges = random_edge_set(rng, v)
    branches = [EdgeConvBranch(f, hidden, out, rng) for _ in range(2)]
    twins = copy.deepcopy(branches)
    dy = rng.normal(size=(v, out))

    shared = prepared_edges(edges)
    assert shared.scratch == {}
    outputs = [b.forward(x, shared, train=True) for b in branches]
    gathered = shared.scratch["gather"]
    assert gathered.shape == (len(shared), hidden) and gathered.dtype == x.dtype
    dxs = []
    for b in reversed(branches):
        dxs.append(b.backward(dy))
        assert shared.scratch["gather"] is gathered
    adjoint = shared.scratch["adjoint"]
    assert adjoint.shape == (len(shared), out)
    for b in branches:
        b.forward(x, shared, train=False)
    assert shared.scratch == {"gather": gathered, "adjoint": adjoint}

    for b, got, dx in zip(reversed(twins), outputs[::-1], dxs):
        own = prepared_edges(edges)
        assert np.array_equal(b.forward(x, own, train=True), got)
        assert np.array_equal(b.backward(dy), dx)
        # A new PreparedEdges builds scratch of its own.
        assert own.scratch["gather"] is not gathered and own.scratch["adjoint"] is not adjoint
    for (_, p), (_, q) in zip((p for b in branches for p in b.parameters()),
                              (q for b in twins for q in b.parameters())):
        assert np.array_equal(p.grad, q.grad)


def test_scratch_follows_the_width_and_dtype_asked_for(rng):
    prep = prepared_edges(random_edge_set(rng, 10))
    z = rng.normal(size=(20, 3))
    first = prep.gather(z)
    assert prep.gather(z) is first
    assert np.array_equal(first, prep.pairs.gather(z))
    wider = prep.gather(rng.normal(size=(20, 5)))
    assert wider.shape == (len(prep), 5) and prep.scratch["gather"] is wider
    single = prep.gather(z.astype(np.float32))
    assert single.dtype == np.float32 and prep.scratch["gather"] is single
    assert np.array_equal(prep.mean_adjoint(z[:10]), prep.rows.mean_adjoint(z[:10]))
