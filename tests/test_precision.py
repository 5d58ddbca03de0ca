"""The network computes in its features' dtype: float32 for the pipeline,
float64, bit for bit as before, for the gradient oracles. Parameters,
gradients, optimizer state and running statistics stay float64."""

import hashlib

import numpy as np
import pytest

from meshseg.graph.neighborhoods import NeighborhoodConfig, Segments
from meshseg.hierarchy.build import HierarchyConfig, build_hierarchy
from meshseg.nn.layers import BatchNorm, Linear
from meshseg.nn.loss import cross_entropy_loss
from meshseg.nn.network import SegmentationNetwork
from meshseg.nn.optim import Adam
from meshseg.pipeline.crops import CropConfig
from meshseg.pipeline.features import vertex_features
from meshseg.pipeline.infer import infer_scene
from meshseg.pipeline.toydata import ToySceneConfig, make_toy_scene
from meshseg.pipeline.train import Sample, prepare_sample, train_step

from test_acceptance import TOY_HIER, TOY_NEIGH, toy_network
from test_network import small_config, small_instance

DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("shape", [(50,), (50, 2)], ids=["one", "two"])
def test_segment_operations_keep_the_operand_dtype(rng, dtype, shape):
    index = rng.integers(0, 10, shape)
    index.reshape(-1)[:10] = np.arange(10)  # no empty segment
    segments = Segments(index, 10)
    rows, per_segment = rng.normal(size=(50, 3)), rng.normal(size=(10, 3))
    for op, values in ((segments.sum, rows), (segments.gather, per_segment),
                       (segments.mean, rows), (segments.mean_adjoint, per_segment),
                       (segments.sum, rows[:, 0])):
        out = op(values.astype(dtype))
        assert out.dtype == dtype, op.__name__
        # float32 runs the same sums as float64, rounded to float32.
        assert np.allclose(out, op(values), rtol=1e-5, atol=1e-5)


def small_network_case():
    """The small network of test_network.py, an instance for it and labels."""
    rng = np.random.default_rng(0)
    features, geo, euc, traces = small_instance(rng)
    labels = rng.integers(0, 4, len(features))
    return SegmentationNetwork(small_config()), features, geo, euc, traces, labels


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_network_computes_in_the_features_dtype(dtype):
    net, features, geo, euc, traces, labels = small_network_case()
    features = features.astype(dtype)
    logits = net.forward(features, geo, euc, traces, train=True)
    assert logits.dtype == dtype
    # What the layers keep for backward is in the features' dtype too.
    for _, m in net.named_modules():
        if isinstance(m, Linear) and m._x is not None:
            assert m._x.dtype == dtype
        if isinstance(m, BatchNorm) and m._cache is not None:
            assert all(a.dtype == dtype for a in m._cache)
    for b in [b for stack in (net.encoder, net.decoder) for blocks in stack
              for blk in blocks for _, b in blk.branches]:
        x, _, inv_std = b._cache
        assert x.dtype == inv_std.dtype == dtype

    _, dlogits = cross_entropy_loss(logits, labels)
    assert dlogits.dtype == dtype
    net.zero_grad()
    assert net.backward(dlogits).dtype == dtype
    assert net.forward(features, geo, euc, traces, train=False).dtype == dtype
    for _, p in net.parameters():
        assert p.value.dtype == p.grad.dtype == np.float64
    for _, m in net.named_modules():
        if isinstance(m, BatchNorm):
            assert m.running_mean.dtype == m.running_var.dtype == np.float64


def test_other_feature_dtypes_run_in_float64():
    net, features, geo, euc, traces, _ = small_network_case()
    rounded = np.round(features * 4)
    logits = net.forward(rounded.astype(np.int64), geo, euc, traces)
    assert logits.dtype == np.float64
    assert np.array_equal(logits, net.forward(rounded, geo, euc, traces))


def toy_sample(dtype):
    """Toy scene 0 over two VC levels, with features in dtype."""
    hier = build_hierarchy(make_toy_scene(0), HierarchyConfig(strategy="vc", cells=(0.15, 0.3)))
    hier.build_euclidean_edges([NeighborhoodConfig(kind="radius", radius=r)
                                for r in (0.25, 0.4)])
    return Sample(hier, vertex_features(hier.levels[0], dtype))


def one_train_step(sample):
    """The loss of one `train_step` of the small network (9 input channels)
    on sample, and the network after it."""
    net = SegmentationNetwork(small_config(input_width=9))
    loss = train_step(net, Adam(net.parameters()), [sample], 4, 17)
    return loss, net


def hash_step(digest, loss, net):
    """Add the loss, parameters, gradients and running statistics after a
    train step to digest."""
    digest.update(np.float64(loss).tobytes())
    for _, p in net.parameters():
        digest.update(p.value.tobytes())
        digest.update(p.grad.tobytes())
    for _, m in net.named_modules():
        if isinstance(m, BatchNorm):
            digest.update(m.running_mean.tobytes())
            digest.update(m.running_var.tobytes())


def step_digest(dtype) -> str:
    """sha256 of the loss, parameters, gradients and running statistics
    after one train step on the toy sample in dtype."""
    digest = hashlib.sha256()
    hash_step(digest, *one_train_step(toy_sample(dtype)))
    return digest.hexdigest()


# sha256 of one float64 train step as computed before the network learnt to
# run in float32; the float64 path must stay bit-identical to it.
FLOAT64_STEP_DIGEST = "b63c351830d5e110eef52d709fcea56bdc993f8f39579298b98e5ad77e421d08"
# sha256 of one float32 train step, the path that train and infer run, as
# computed before `Segments` dropped its scipy matrices.
FLOAT32_STEP_DIGEST = "7415dc953fdf42ee663f336991319e7df53c1a6580652ed104893ddfba4dda46"


def test_float64_train_step_is_pinned():
    assert step_digest(np.float64) == FLOAT64_STEP_DIGEST


def test_float32_train_step_is_pinned():
    assert step_digest(np.float32) == FLOAT32_STEP_DIGEST


def test_float32_train_step_loss_matches_float64():
    single, _ = one_train_step(toy_sample(np.float32))
    double, _ = one_train_step(toy_sample(np.float64))
    assert abs(single - double) <= 1e-4 * abs(double)


@pytest.fixture(scope="module")
def batch_training():
    """sha256 of the loss, parameters, gradients and running statistics after
    each of three train steps of the toy network on a batch of three whole toy
    scenes, so that the vertex offsets of batching are pinned; and the network
    after them."""
    samples = [prepare_sample(make_toy_scene(seed, ToySceneConfig(tiles_per_side=2)),
                              TOY_HIER, TOY_NEIGH) for seed in range(3)]
    net = toy_network("dual", 3)
    optimizer = Adam(net.parameters())
    digest = hashlib.sha256()
    for res_seed in (100, 101, 102):
        hash_step(digest, train_step(net, optimizer, samples, 15, res_seed), net)
    return digest.hexdigest(), net


# sha256 of three train steps on a batch of three crops, and of the vote table
# of inference with the trained network, as computed while a batch still
# merged its crops' whole hierarchies.
BATCH_STEP_DIGEST = "751df3c90811dbbea1a1796de8fe5b70cd10827fac344c42c43ef8487c7308ac"
VOTE_DIGEST = "844020ad6eb6691114b46a89eed8c0e7ed6755086577269168cfdb380469aca3"


def test_batch_train_steps_are_pinned(batch_training):
    assert batch_training[0] == BATCH_STEP_DIGEST


def test_inference_votes_are_pinned(batch_training):
    result = infer_scene(batch_training[1], make_toy_scene(5, ToySceneConfig(tiles_per_side=6)),
                         TOY_HIER, TOY_NEIGH, CropConfig(), res_threshold=25, seed=7)
    assert result.num_crops == 9
    assert hashlib.sha256(result.votes.tobytes()).hexdigest() == VOTE_DIGEST
