import numpy as np
import pytest

from meshseg.graph.neighborhoods import EdgeSet, NeighborhoodConfig
from meshseg.hierarchy.build import HierarchyConfig, build_hierarchy
from meshseg.hierarchy.trace import PoolingTraceMap
from meshseg.nn.edgeconv import prepared_edges
from meshseg.nn.gradcheck import finite_difference_check
from meshseg.nn.layers import BN_EPS, BatchNorm, Linear
from meshseg.nn.loss import cross_entropy_loss
from meshseg.graph.res import res_sample
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.pipeline.toydata import make_toy_scene
from meshseg.pipeline.train import EUCLIDEAN_SEED_OFFSET, network_inputs

from test_edgeconv import random_edge_set


def small_config(**overrides):
    defaults = dict(
        num_levels=2,
        blocks_per_level=2,
        num_classes=4,
        input_width=3,
        geo_widths=((6, 4), (6, 4)),
        euc_widths=((6, 4), (6, 4)),
        head_hidden=5,
        seed=0,
    )
    defaults.update(overrides)
    return NetworkConfig(**defaults)


def small_instance(rng, v0=14, v1=5):
    geo = [random_edge_set(rng, v0), random_edge_set(rng, v1)]
    euc = [random_edge_set(rng, v0), random_edge_set(rng, v1)]
    assignment = np.concatenate([np.arange(v1), rng.integers(0, v1, v0 - v1)])
    traces = [PoolingTraceMap(rng.permutation(assignment), v1)]
    features = rng.normal(size=(v0, 3))
    return features, geo, euc, traces


def test_default_parameter_counts():
    dual = SegmentationNetwork(NetworkConfig.dual_default())
    assert dual.num_parameters() == 478933
    geo_only = SegmentationNetwork(NetworkConfig.single_default("geo"))
    assert geo_only.num_parameters() == 564949
    euc_only = SegmentationNetwork(NetworkConfig.single_default("euc"))
    assert euc_only.num_parameters() == 564949


def test_forward_shapes_and_determinism(rng):
    net = SegmentationNetwork(small_config())
    features, geo, euc, traces = small_instance(rng)
    logits = net.forward(features, geo, euc, traces)
    assert logits.shape == (14, 4)
    again = net.forward(features, geo, euc, traces)
    assert np.array_equal(logits, again)


def test_first_block_is_relative_rest_residual():
    net = SegmentationNetwork(small_config())
    first = net.encoder[0][0]
    assert first.geodesic.relative and first.euclidean.relative
    assert not first.residual  # input width 3 != block output width 8
    for lvl, blocks in enumerate(net.encoder):
        for b, blk in enumerate(blocks):
            if lvl == 0 and b == 0:
                continue
            assert not blk.geodesic.relative
            if b > 0:
                assert blk.residual
    # First decoder block consumes unpooled + skip features, the rest are
    # width preserving and residual.
    assert net.decoder[0][0].in_width == 8 + 8
    assert not net.decoder[0][0].residual
    assert net.decoder[0][1].residual


def test_forward_matches_manual_wiring(rng):
    # Recompose the forward pass from the network's own blocks and the
    # pool/unpool primitives; the network must be exactly this wiring.
    net = SegmentationNetwork(small_config())
    features, geo, euc, traces = small_instance(rng)
    logits = net.forward(features, geo, euc, traces)

    g = [prepared_edges(e) for e in geo]
    e = [prepared_edges(x) for x in euc]
    x = features.astype(np.float64)
    for blk in net.encoder[0]:
        x = blk.forward(x, g[0], e[0], train=False)
    skip = x
    x = traces[0].mean(x)
    for blk in net.encoder[1]:
        x = blk.forward(x, g[1], e[1], train=False)
    x = np.concatenate([traces[0].gather(x), skip], axis=1)
    for blk in net.decoder[0]:
        x = blk.forward(x, g[0], e[0], train=False)
    linear1, bn, relu, linear2 = net.head.modules
    h = linear1.forward(x, train=False)
    h = bn.forward(h, train=False)
    h = relu.forward(h, train=False)
    manual = linear2.forward(h, train=False)
    assert np.allclose(logits, manual, atol=1e-12)


def textbook_eval(modules, h):
    """Eval of the modules one at a time, each BatchNorm as
    (h - running_mean) / sqrt(running_var + eps) gamma + beta."""
    for m in modules:
        if isinstance(m, Linear):
            h = h @ m.weight.value + m.bias.value
        elif isinstance(m, BatchNorm):
            h = (h - m.running_mean) / np.sqrt(m.running_var + BN_EPS) * m.gamma.value \
                + m.beta.value
        else:
            h = np.maximum(h, 0.0)
    return h


@pytest.mark.parametrize("config", [NetworkConfig.dual_default(num_classes=5),
                                    NetworkConfig.single_default("geo", num_classes=5)],
                         ids=["dual", "geo"])
def test_folded_eval_matches_module_by_module_eval(rng, config):
    """Eval folds every BatchNorm into the product before it; each branch and
    the head agree with their modules run one at a time, per edge row."""
    net = SegmentationNetwork(config)
    for _, m in net.named_modules():
        if isinstance(m, BatchNorm):
            m.gamma.value = rng.normal(size=m.gamma.value.shape)
            m.beta.value = rng.normal(size=m.beta.value.shape)
            m.running_mean = rng.normal(size=m.running_mean.shape)
            m.running_var = rng.uniform(0.05, 3.0, size=m.running_var.shape)
    edges = prepared_edges(random_edge_set(rng, 30))
    branches = [b for stack in (net.encoder, net.decoder) for blocks in stack
                for blk in blocks for _, b in blk.branches]
    assert len(branches) == (42 if config.euc_widths[0][1] else 21)
    for branch in branches:
        x = rng.normal(size=(30, branch.in_width))
        diff = x[edges.nbrs] - x[edges.centers]
        rows = diff if branch.relative else np.concatenate([x[edges.centers], diff], axis=1)
        per_edge = textbook_eval([m for _, m in branch.named_modules()], rows)
        ref = edges.rows.mean(per_edge)
        got = branch.forward(x, edges, train=False)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    x = rng.normal(size=(200, config.level_width(0)))
    ref = textbook_eval(net.head.modules, x)
    got = net.head.forward(x, train=False)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(got.argmax(axis=1), ref.argmax(axis=1))


def test_seed_controls_initialization(rng):
    features, geo, euc, traces = small_instance(rng)
    a = SegmentationNetwork(small_config(seed=1)).forward(features, geo, euc, traces)
    b = SegmentationNetwork(small_config(seed=1)).forward(features, geo, euc, traces)
    c = SegmentationNetwork(small_config(seed=2)).forward(features, geo, euc, traces)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_backward_matches_finite_differences(rng):
    net = SegmentationNetwork(small_config())
    features, geo, euc, traces = small_instance(rng)
    labels = rng.integers(0, 4, 14)

    def loss_fn():
        logits = net.forward(features, geo, euc, traces, train=True)
        return cross_entropy_loss(logits, labels)[0]

    logits = net.forward(features, geo, euc, traces, train=True)
    _, dlogits = cross_entropy_loss(logits, labels)
    net.zero_grad()
    net.backward(dlogits)
    report = finite_difference_check(
        loss_fn, net.parameters(), tolerance=1e-4,
        max_entries_per_tensor=2, rng=np.random.default_rng(0),
    )
    assert report.passed, str(report)


def test_depth_and_width_validation(rng):
    net = SegmentationNetwork(small_config())
    features, geo, euc, traces = small_instance(rng)
    with pytest.raises(ValueError):
        net.forward(features, geo[:1], euc, traces)
    with pytest.raises(ValueError):
        net.forward(features, geo, euc, [])
    with pytest.raises(ValueError):
        net.forward(features[:, :2], geo, euc, traces)
    with pytest.raises(ValueError):
        NetworkConfig(num_levels=3, geo_widths=((4, 4),) * 2, euc_widths=((4, 4),) * 2)


def test_network_inputs_cut_and_thin_a_hierarchy(rng):
    scene = make_toy_scene(0)
    hier = build_hierarchy(
        scene, HierarchyConfig(strategy="vc", cells=(0.15, 0.3, 0.6, 1.2))
    )
    hier.build_euclidean_edges(
        [NeighborhoodConfig(kind="radius", radius=r) for r in (0.25, 0.4, 0.8, 1.6)]
    )
    cfg = NetworkConfig(
        num_levels=3, blocks_per_level=1, num_classes=3,
        geo_widths=((4, 2),) * 3, euc_widths=((4, 2),) * 3, head_hidden=4,
    )
    net = SegmentationNetwork(cfg)
    geo, euc, traces = network_inputs(net, hier, 4, 17)
    assert len(geo) == len(euc) == 3 and traces == hier.traces[:2]
    for lvl in range(3):
        for got, edges, seed in ((geo, hier.geodesic_edges, 17 + lvl),
                                 (euc, hier.euclidean_edges, 17 + EUCLIDEAN_SEED_OFFSET + lvl)):
            want = res_sample(edges[lvl], 4, seed)
            assert np.array_equal(got[lvl].indptr, want.indptr)
            assert np.array_equal(got[lvl].indices, want.indices)
    assert sum(e.num_edges for e in euc) < sum(e.num_edges for e in hier.euclidean_edges[:3])

    features = rng.normal(size=(hier.levels[0].num_vertices, 9))
    logits = net.forward(features, geo, euc, traces)
    assert logits.shape == (hier.levels[0].num_vertices, 3)
    # A threshold above every degree keeps every edge.
    assert np.array_equal(
        net.forward(features, *network_inputs(net, hier, 10 ** 6, 0)),
        net.forward(features, hier.geodesic_edges[:3], hier.euclidean_edges[:3], traces))
