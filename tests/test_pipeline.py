import importlib
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshseg import parallel
from meshseg.mesh.core import Mesh, UNLABELED
from meshseg.graph.neighborhoods import NeighborhoodConfig
from meshseg.hierarchy.build import HierarchyConfig
from meshseg.nn.layers import BatchNorm
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.pipeline.augment import affine_from_draws, apply_affine, random_affine
from meshseg.pipeline.crops import CropConfig, crop_scene, crop_windows, reject_crop, submesh
from meshseg.pipeline.features import FEATURE_WIDTH, normalize_positions, vertex_features
from meshseg.pipeline.infer import majority_vote, vote_over_runs
from meshseg.pipeline.metrics import confusion_matrix, evaluate
from meshseg.pipeline.toydata import (NUM_TOY_CLASSES, ToySceneConfig, make_toy_dataset,
                                      make_toy_scene)
from meshseg.pipeline.train import TrainConfig, collect_crops, train

from conftest import grid_mesh, mesh_digest, random_mesh
from test_parallel import needs_pin

# The module, which the package's `train` function shadows as an attribute.
train_module = importlib.import_module("meshseg.pipeline.train")


# --------------------------------------------------------------------- crops


def test_crop_windows_cover_every_vertex(rng):
    mesh = random_mesh(rng, 300, 100, box=5.0)
    windows = crop_windows(mesh, CropConfig(extent=3.0, stride=1.5))
    covered = np.zeros(300, dtype=bool)
    for idx in windows:
        covered[idx] = True
        xy = mesh.positions[idx, :2]
        assert (xy.max(axis=0) - xy.min(axis=0) <= 3.0 + 1e-12).all()
    assert covered.all()


def test_crop_window_count_follows_stride(rng):
    # Span 4 m in x and y with a 3 m window and 1.5 m stride: two window
    # offsets per axis, four windows total.
    pts = rng.uniform(0, 4, size=(500, 3))
    mesh = Mesh(positions=pts, faces=np.empty((0, 3), dtype=np.int64))
    windows = crop_windows(mesh, CropConfig(extent=3.0, stride=1.5))
    assert len(windows) == 4


def test_scene_smaller_than_crop_gives_single_window(rng):
    mesh = random_mesh(rng, 40, 10, box=1.0)
    windows = crop_windows(mesh, CropConfig(extent=3.0, stride=1.5))
    assert len(windows) == 1
    assert np.array_equal(windows[0], np.arange(40))


def uncovered(mesh, config):
    covered = np.zeros(mesh.num_vertices, dtype=bool)
    for idx in crop_windows(mesh, config):
        covered[idx] = True
    return np.flatnonzero(~covered)


def test_last_crop_window_reaches_the_far_edge():
    # The 6x6-tile toy scene stretched to span lo .. hi in x, with hi the
    # largest double at which hi - lo still rounds to 18.0. The ninth window
    # ends at lo + 8 * 1.8 + 3.6, which rounds below hi.
    lo, hi = -19.680517070835503, -1.680517070835501
    assert hi - lo == 18.0 and lo + 8 * 1.8 + 3.6 < hi
    scene = make_toy_scene(1, ToySceneConfig(tiles_per_side=6))
    xy = scene.positions[:, :2]
    far = np.argmax(xy[:, 0])
    xy[:] = lo + (xy - xy.min(axis=0)) * (18.0 / np.ptp(xy[:, 0]))
    xy[far, 0] = hi
    assert scene.num_vertices == 3558 and xy[:, 0].min() == lo
    assert uncovered(scene, CropConfig(extent=3.6, stride=1.8)).size == 0


@given(lo=st.floats(-1e3, 1e3), k=st.integers(0, 12),
       extent=st.floats(1e-3, 10.0), ratio=st.floats(1e-2, 1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_crop_windows_cover_a_span_of_whole_strides(lo, k, extent, ratio):
    # A span of k strides plus one extent: before rounding, the last window
    # ends exactly at the far edge. The window ends add lo + k stride first,
    # so hi adds in the other order to round either way. CropConfig refuses
    # a stride above the extent, which would leave gaps between windows.
    stride = extent * ratio
    hi = lo + (k * stride + extent)
    grid = np.array([lo, (lo + hi) / 2, hi])
    xy = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    mesh = Mesh(positions=np.column_stack([xy, np.zeros(len(xy))]),
                faces=np.empty((0, 3), dtype=np.int64))
    assert uncovered(mesh, CropConfig(extent=extent, stride=stride)).size == 0


def test_submesh_remaps_faces():
    mesh = grid_mesh(2)  # 3x3 vertices
    keep = np.ones(9, dtype=bool)
    keep[4] = False  # drop the center vertex
    sub = submesh(mesh, np.flatnonzero(keep))
    assert sub.num_vertices == 8
    # Every face touching the center vertex disappears; the rest reindex.
    assert sub.num_faces == mesh.num_faces - int((mesh.faces == 4).any(axis=1).sum())
    assert sub.faces.max() < 8
    orig = mesh.positions[keep]
    assert np.array_equal(sub.positions, orig)


@pytest.mark.parametrize("present", [(), ("colors",), ("normals", "labels"),
                                     ("colors", "normals", "labels")])
def test_submesh_keeps_exactly_the_arrays_of_its_mesh(present):
    mesh = grid_mesh(3)
    mesh.colors = np.linspace(0.0, 1.0, 48).reshape(16, 3)
    mesh.labels = np.arange(16) % 3
    for name in ("colors", "normals", "labels"):
        if name not in present:
            setattr(mesh, name, None)
    indices = np.array([9, 2, 5, 0, 6])
    sub = submesh(mesh, indices)
    assert set(sub.vertex_arrays()) == {"positions", *present}
    for name, values in sub.vertex_arrays().items():
        assert np.array_equal(values, getattr(mesh, name)[indices])


def test_crop_scene_preserves_attributes(rng):
    mesh = random_mesh(rng, 200, 80, labeled=True, colors=True, box=4.0)
    crops = crop_scene(mesh, CropConfig(extent=3.0, stride=1.5))
    assert crops
    for crop in crops:
        assert crop.labels is not None and crop.colors is not None
        assert crop.labels.shape == (crop.num_vertices,)


def test_reject_crop_boundary():
    def crop_with_unlabeled(k):
        labels = np.zeros(100, dtype=np.int64)
        labels[:k] = UNLABELED
        return Mesh(
            positions=np.random.default_rng(0).uniform(0, 1, (100, 3)),
            faces=np.empty((0, 3), dtype=np.int64),
            labels=labels,
        )

    assert not reject_crop(crop_with_unlabeled(80))
    assert reject_crop(crop_with_unlabeled(81))


def test_reject_crop_unlabeled_and_empty(rng):
    mesh = random_mesh(rng, 10, 4)  # no labels at all
    assert reject_crop(mesh)
    empty = submesh(mesh, np.flatnonzero(np.zeros(10, dtype=bool)))
    with pytest.raises(ValueError):
        reject_crop(empty)


def test_crop_config_validation():
    with pytest.raises(ValueError):
        CropConfig(extent=0.0)
    # Toy scene 1 swept with these windows leaves 1,037 of its 1,751
    # vertices in no window.
    with pytest.raises(ValueError, match="stride 2.0 exceeds the crop extent 1.0"):
        CropConfig(extent=1.0, stride=2.0)
    # Closed windows a stride apart meet.
    assert CropConfig(extent=1.0, stride=1.0).stride == 1.0


# ------------------------------------------------------------------- augment


def test_affine_identity():
    m = affine_from_draws(0.0, 1.0, np.zeros(3))
    assert np.allclose(m, np.eye(4), atol=1e-15)


def test_rotation_translation_is_isometry(rng):
    mesh = random_mesh(rng, 30, 10, colors=True)
    mesh.normals = np.tile([0.0, 0.0, 1.0], (30, 1))
    m = affine_from_draws(0.7, 1.0, np.array([0.3, -0.2, 0.1]))
    out = apply_affine(mesh, m)
    d0 = np.linalg.norm(mesh.positions[:, None] - mesh.positions[None], axis=2)
    d1 = np.linalg.norm(out.positions[:, None] - out.positions[None], axis=2)
    assert np.allclose(d0, d1, atol=1e-9)
    # Rotation about z leaves the up normal untouched.
    assert np.allclose(out.normals, mesh.normals, atol=1e-12)
    assert np.array_equal(out.colors, mesh.colors)


def test_uniform_scale_scales_distances(rng):
    mesh = random_mesh(rng, 20, 8)
    m = affine_from_draws(1.3, 1.1, np.zeros(3))
    out = apply_affine(mesh, m)
    d0 = np.linalg.norm(mesh.positions[0] - mesh.positions[1])
    d1 = np.linalg.norm(out.positions[0] - out.positions[1])
    assert d1 == pytest.approx(1.1 * d0, rel=1e-9)


def test_normals_stay_unit_under_scale(rng):
    mesh = random_mesh(rng, 15, 6)
    n = rng.normal(size=(15, 3))
    mesh.normals = n / np.linalg.norm(n, axis=1, keepdims=True)
    out = apply_affine(mesh, affine_from_draws(2.1, 0.9, np.array([1.0, 2.0, 3.0])))
    assert np.allclose(np.linalg.norm(out.normals, axis=1), 1.0, atol=1e-9)


def test_random_affine_deterministic_per_seed(rng):
    mesh = random_mesh(rng, 20, 8)
    a = random_affine(mesh, np.random.default_rng(5))
    b = random_affine(mesh, np.random.default_rng(5))
    c = random_affine(mesh, np.random.default_rng(6))
    assert np.array_equal(a.positions, b.positions)
    assert not np.allclose(a.positions, c.positions)


def test_toy_scene_augmentation_is_pinned():
    scene = make_toy_scene(0)
    fixed = apply_affine(scene, affine_from_draws(0.7, 1.05, (0.03, -0.02, 0.01)))
    assert mesh_digest(fixed) == (
        "3606569f8a819a5e6adcb42d8b0f47ce1562d57122d2c9f77fe1d4b8ab19885f")
    drawn = random_affine(scene, np.random.default_rng(5))
    assert mesh_digest(drawn) == (
        "b09b5c8c8e146f9de9dee4695f4854c86f4b20f6dfd6c23a40a9758a8b4b1bc3")


def test_random_affine_scale_within_range(rng):
    mesh = random_mesh(rng, 25, 10)
    d0 = np.linalg.norm(mesh.positions[0] - mesh.positions[1])
    for seed in range(10):
        out = random_affine(mesh, np.random.default_rng(seed))
        d1 = np.linalg.norm(out.positions[0] - out.positions[1])
        assert 0.9 * d0 - 1e-9 <= d1 <= 1.1 * d0 + 1e-9


# ------------------------------------------------------------------ features


def test_normalize_positions_corners():
    pts = np.array([[0.0, 10.0, -2.0], [2.0, 20.0, -2.0], [1.0, 15.0, -2.0]])
    out = normalize_positions(pts)
    assert np.allclose(out[:, 0], [0.0, 1.0, 0.5], atol=1e-12)
    assert np.allclose(out[:, 1], [0.0, 1.0, 0.5], atol=1e-12)
    # Degenerate z axis maps to zero everywhere.
    assert np.array_equal(out[:, 2], np.zeros(3))


def test_vertex_features_layout(rng):
    mesh = random_mesh(rng, 20, 8, colors=True)
    n = rng.normal(size=(20, 3))
    mesh.normals = n / np.linalg.norm(n, axis=1, keepdims=True)
    f = vertex_features(mesh, np.float64)
    assert f.shape == (20, FEATURE_WIDTH) and f.dtype == np.float64
    assert np.array_equal(f[:, :3], normalize_positions(mesh.positions))
    assert np.array_equal(f[:, 3:6], mesh.colors)
    assert np.array_equal(f[:, 6:9], mesh.normals)
    # The pipeline's features are the same, rounded to float32.
    single = vertex_features(mesh)
    assert single.dtype == np.float32
    assert np.array_equal(single, f.astype(np.float32))


def test_vertex_features_missing_color_and_normal():
    mesh = grid_mesh(2)  # 3x3 vertices
    f = vertex_features(mesh)
    assert np.array_equal(f[:, 3:6], np.zeros((9, 3)))
    # Flat grid: computed normals are all +z.
    assert np.allclose(f[:, 6:9], np.tile([0.0, 0.0, 1.0], (9, 1)), atol=1e-12)


# ------------------------------------------------------------------- metrics


def test_confusion_matrix_hand_example():
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 1, 1, 1])
    cm = confusion_matrix(labels, preds, 2)
    assert np.array_equal(cm, [[1, 1], [0, 2]])
    r = evaluate(labels, preds, 2)
    assert r.iou[0] == pytest.approx(0.5)
    assert r.iou[1] == pytest.approx(2 / 3)
    assert r.class_accuracy[0] == pytest.approx(0.5)
    assert r.class_accuracy[1] == pytest.approx(1.0)
    assert r.mean_iou == pytest.approx((0.5 + 2 / 3) / 2)
    assert r.mean_accuracy == pytest.approx(0.75)
    assert r.overall_accuracy == pytest.approx(0.75)


def test_constant_prediction_scores():
    # Four balanced classes, everything predicted as class 0.
    labels = np.repeat(np.arange(4), 10)
    preds = np.zeros(40, dtype=np.int64)
    r = evaluate(labels, preds, 4)
    assert r.iou[0] == pytest.approx(0.25)
    assert np.allclose(r.iou[1:], 0.0)
    assert r.mean_iou == pytest.approx(0.0625)
    assert r.overall_accuracy == pytest.approx(0.25)


def test_unlabeled_ground_truth_is_ignored(rng):
    labels = rng.integers(0, 3, 50)
    preds = rng.integers(0, 3, 50)
    labels2 = labels.copy()
    labels2[::5] = UNLABELED
    preds2 = preds.copy()
    preds2[::5] = (preds2[::5] + 1) % 3  # flip predictions only where unlabeled
    assert np.array_equal(
        confusion_matrix(labels2, preds, 3), confusion_matrix(labels2, preds2, 3)
    )
    assert confusion_matrix(labels2, preds, 3).sum() == (labels2 != UNLABELED).sum()


def test_confusion_matrix_matches_double_loop(rng):
    labels = rng.integers(-1, 4, 200)
    preds = rng.integers(0, 4, 200)
    cm = confusion_matrix(labels, preds, 4)
    expected = np.zeros((4, 4), dtype=np.int64)
    for l, p in zip(labels, preds):
        if l != UNLABELED:
            expected[l, p] += 1
    assert np.array_equal(cm, expected)


def test_absent_class_is_nan_and_excluded():
    labels = np.array([0, 0, 1])
    preds = np.array([0, 0, 1])
    r = evaluate(labels, preds, 3)
    assert np.isnan(r.iou[2]) and np.isnan(r.class_accuracy[2])
    assert r.mean_iou == pytest.approx(1.0)
    assert "class 2" not in r.summary()


def test_metrics_errors():
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 1]), np.array([0]), 2)
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 5]), np.array([0, 0]), 2)
    with pytest.raises(ValueError):
        evaluate(np.full(3, UNLABELED), np.zeros(3, dtype=np.int64), 2)


# -------------------------------------------------------------------- voting


def test_majority_vote_tie_goes_to_lowest_class():
    votes = np.array([[2, 2, 0], [0, 1, 3], [1, 1, 1]])
    assert majority_vote(votes).tolist() == [0, 2, 0]


def test_majority_vote_errors():
    with pytest.raises(ValueError):
        majority_vote(np.array([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        majority_vote(np.zeros(3))


def test_vote_over_runs(rng):
    a = np.array([0, 1, 2, 1])
    b = np.array([0, 1, 0, 2])
    c = np.array([0, 2, 0, 1])
    assert vote_over_runs([a, a, a]).tolist() == a.tolist()
    assert vote_over_runs([a, b, c]).tolist() == [0, 1, 0, 1]


# ------------------------------------------------------------------ training


TOY_HIER = HierarchyConfig(strategy="vc", cells=(0.15, 0.3, 0.6, 1.2))
TOY_NEIGH = [NeighborhoodConfig(kind="radius", radius=r) for r in (0.25, 0.4, 0.8, 1.6)]


def tiny_net(seed=0):
    return SegmentationNetwork(NetworkConfig(
        num_levels=4, blocks_per_level=1, num_classes=NUM_TOY_CLASSES,
        geo_widths=((8, 4),) * 4, euc_widths=((8, 4),) * 4,
        head_hidden=8, seed=seed,
    ))


def toy_train_config(**overrides):
    defaults = dict(
        epochs=2, batch_size=4, res_threshold=15, seed=0, augment=False,
        crop=CropConfig(extent=3.6, stride=1.8),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_collect_crops_rejects_unlabeled_scene(rng):
    scene = random_mesh(rng, 50, 20)  # no labels
    with pytest.raises(ValueError):
        collect_crops([scene], CropConfig())


def test_train_is_deterministic():
    scene = make_toy_scene(0)
    histories = []
    params = []
    for _ in range(2):
        net = tiny_net()
        history = train(net, [scene], TOY_HIER, TOY_NEIGH, toy_train_config())
        histories.append(history)
        params.append([p.value.copy() for _, p in net.parameters()])
    assert histories[0] == histories[1]
    for a, b in zip(*params):
        assert np.array_equal(a, b)


def test_train_zero_lr_leaves_parameters_unchanged():
    scene = make_toy_scene(0)
    net = tiny_net()
    before = [p.value.copy() for _, p in net.parameters()]
    train(net, [scene], TOY_HIER, TOY_NEIGH, toy_train_config(epochs=1, base_lr=0.0))
    for (_, p), b in zip(net.parameters(), before):
        assert np.allclose(p.value, b, atol=1e-15)


def test_train_loss_decreases_on_overfit_crop():
    scene = make_toy_scene(0)
    net = tiny_net()
    history = train(net, [scene], TOY_HIER, TOY_NEIGH, toy_train_config(epochs=12))
    assert history[-1] < history[0]
    assert len(history) == 12


def test_augmented_training_runs():
    scene = make_toy_scene(0)
    net = tiny_net()
    history = train(net, [scene], TOY_HIER, TOY_NEIGH,
                    toy_train_config(epochs=1, augment=True))
    assert len(history) == 1 and np.isfinite(history[0])


def trained_state(net, history):
    """The history, and the bytes of every parameter and BatchNorm running statistic."""
    stats = [s.tobytes() for _, m in net.named_modules() if isinstance(m, BatchNorm)
             for s in (m.running_mean, m.running_var)]
    return history, [p.value.tobytes() for _, p in net.parameters()], stats


@needs_pin
@pytest.mark.parametrize("scenes", [5, 1], ids=["5-crops-batch-4", "1-crop"])
def test_augmented_training_on_two_processes_equals_one_at_one_blas_thread(
        monkeypatch, tmp_path, scenes):
    """One toy scene gives one crop, so 5 crops make batches of 4 and 1."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    dataset = make_toy_dataset(scenes)
    config = toy_train_config(epochs=3, augment=True)
    assert len(collect_crops(dataset, config.crop)) == scenes
    with parallel.blas_threads(1):
        net = tiny_net()
        serial = trained_state(net, train(net, dataset, TOY_HIER, TOY_NEIGH, config,
                                          processes=1))
    log = tmp_path / "pids"
    original = train_module.prepare_sample

    def prepare(*args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return original(*args)
    monkeypatch.setattr(train_module, "prepare_sample", prepare)
    net = tiny_net()
    split = trained_state(net, train(net, dataset, TOY_HIER, TOY_NEIGH, config, processes=2))
    assert split == serial
    pids = log.read_text().split()
    assert len(pids) == 3 * scenes
    if scenes > 1:
        assert {str(os.getpid())} < set(pids)  # the worker prepared some samples
    assert multiprocessing.active_children() == []
