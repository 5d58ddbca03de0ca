"""The four benchmark workloads: inputs, the measured operation, checks.

Every input comes from `make_toy_scene` with the workload seed. Each
workload function takes the `Run` that times and checks it, the seed, a
size table from `SIZES` and a scratch directory inside the checkout, and
returns a dict describing the sizes it ran at.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np
from scipy.spatial import cKDTree

from meshseg import cli
from meshseg.graph.neighborhoods import NeighborhoodConfig
from meshseg.hierarchy.build import DEFAULT_RADII, HierarchyConfig
from meshseg.hierarchy.store import deserialize_hierarchy
from meshseg.mesh.io import load_mesh, save_mesh
from meshseg.nn.checkpoint import save_checkpoint
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.nn.optim import Adam
from meshseg.pipeline.crops import CropConfig, crop_windows
from meshseg.pipeline.toydata import (NUM_TOY_CLASSES, ToySceneConfig, make_toy_dataset,
                                      make_toy_scene)
from meshseg.pipeline.train import TrainConfig, prepare_sample, train, train_step

# The toy benchmark of the acceptance suite (tests/test_acceptance.py).
TOY_HIER = HierarchyConfig(strategy="vc+qem", cells=(0.15,), qem_levels=3,
                           qem_pair_distance=0.15)
TOY_NEIGH = [NeighborhoodConfig(kind="radius", radius=r) for r in (0.25, 0.4, 0.8, 1.6)]
TOY_CROP = CropConfig(extent=3.6, stride=1.8)

# Hierarchy and radius-graph defaults of the command-line interface.
CLI_NEIGH = [NeighborhoodConfig(kind="radius", radius=r) for r in DEFAULT_RADII]

# The full-size scaled scene (6x6 tiles at 0.045 m, 12.8k vertices) takes
# 10 s per train step, 29 s per infer call and 41 s per scene-prep pass on
# two CPUs, too long for a run of about half a minute with its set-up.
# So scaled-train keeps the 0.045 m spacing on 4x4 tiles (6.3k vertices),
# scaled-infer keeps the 6x6 layout and its 9 crops at 0.09 m (3.6k
# vertices), and scene-prep subdivides the 1.8k-vertex toy scene.
SIZES = {
    "default": {
        "toy_scenes": 8,
        "toy_scene": ToySceneConfig(),
        "scaled_scene": ToySceneConfig(tiles_per_side=4, tile_spacing=0.045),
        "infer_scene": ToySceneConfig(tiles_per_side=6),
        "prep_scene": ToySceneConfig(),
    },
    # A few seconds per workload, for the self-test.
    "tiny": {
        "toy_scenes": 2,
        "toy_scene": ToySceneConfig(tiles_per_side=2),
        "scaled_scene": ToySceneConfig(tiles_per_side=1, tile_spacing=0.09),
        "infer_scene": ToySceneConfig(tiles_per_side=1, tile_spacing=0.09),
        "prep_scene": ToySceneConfig(tiles_per_side=1, tile_spacing=0.18),
    },
}


def toy_network(seed: int) -> SegmentationNetwork:
    return SegmentationNetwork(NetworkConfig(
        num_levels=4, num_classes=NUM_TOY_CLASSES, head_hidden=16, seed=seed,
        geo_widths=((16, 8),) * 4, euc_widths=((16, 8),) * 4,
    ))


def default_network(seed: int) -> SegmentationNetwork:
    return SegmentationNetwork(NetworkConfig.dual_default(NUM_TOY_CLASSES, 4, seed))


def _cli(argv):
    """Run one meshseg command; its progress line goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main([str(a) for a in argv])


class _Deadline(Exception):
    """Raised from the epoch callback to end `train` when time is up."""


# ----------------------------------------------------------------- toy-train


def toy_train(run, seed, size, workdir):
    """`train` with augmentation; one operation is one epoch."""
    def make():
        return make_toy_dataset(size["toy_scenes"], seed, size["toy_scene"]), toy_network(seed)
    scenes, net = run.setup(make)

    step_losses = []
    epoch_losses = []

    def probe(original):
        def wrapper(*args, **kwargs):
            loss = run.timed("train_step", original, *args, **kwargs)
            step_losses.append(loss)
            return loss
        return wrapper
    run.patches.function("meshseg.pipeline.train", "train_step", probe)

    def on_epoch(message):
        run.end_op("train_epoch")
        epoch_losses.append(float(np.mean(step_losses)))
        step_losses.clear()
        if run.time_up(len(epoch_losses) - 1, min_ops=3):
            raise _Deadline
        run.begin_op()

    config = TrainConfig(epochs=10 ** 6, batch_size=4, seed=seed, augment=True,
                         crop=TOY_CROP)
    run.begin_op(warmup=True)  # the first epoch
    try:
        train(net, scenes, TOY_HIER, TOY_NEIGH, config, log=on_epoch)
    except _Deadline:
        pass
    check_toy_losses(run, epoch_losses)
    return {"scenes": len(scenes), "vertices_per_scene": scenes[0].num_vertices,
            "parameters": net.num_parameters(), "batch": config.batch_size}


def check_toy_losses(run, epoch_losses):
    run.check("toy-train: every epoch loss is finite",
              bool(np.isfinite(epoch_losses).all()))
    run.check("toy-train: last epoch loss is below the first",
              len(epoch_losses) >= 2 and epoch_losses[-1] < epoch_losses[0])


# -------------------------------------------------------------- scaled-train


def scaled_train(run, seed, size, workdir):
    """Repeated `train_step` with RES T=15 on one cached full-scene sample."""
    def make():
        scene = make_toy_scene(seed, size["scaled_scene"])
        sample = prepare_sample(scene, HierarchyConfig(strategy="vc+qem", fps_seed=seed),
                                CLI_NEIGH)
        net = default_network(seed)
        return sample, net, Adam(net.parameters(), lr=1e-3)
    sample, net, optimizer = run.setup(make)

    rng = np.random.default_rng(seed)

    def step():
        return train_step(net, optimizer, [sample], 15, int(rng.integers(2 ** 31)))

    def after(loss):
        check_finite_training(run, loss, net)
    run.repeat("train_step", step, after, min_ops=2)
    return {"vertices_per_level": [m.num_vertices for m in sample.hierarchy.levels],
            "parameters": net.num_parameters()}


def check_finite_training(run, loss, net):
    run.check("scaled-train: loss is finite", bool(np.isfinite(loss)))
    run.check("scaled-train: parameters are finite",
              all(bool(np.isfinite(p.value).all()) for _, p in net.parameters()))


# -------------------------------------------------------------- scaled-infer


def scaled_infer(run, seed, size, workdir):
    """The `meshseg infer` command on a saved scene and checkpoint."""
    ckpt, scene_path = workdir / "checkpoint.bin", workdir / "scene.ply"
    out = workdir / "predictions.txt"

    def make():
        scene = make_toy_scene(seed, size["infer_scene"])
        net = default_network(seed)
        save_checkpoint(net, ckpt)
        save_mesh(scene, scene_path)
        return scene
    scene = run.setup(make)
    crop_total = sum(len(w) for w in crop_windows(scene, CropConfig()))

    captured = []

    def probe(original):
        def wrapper(*args, **kwargs):
            captured.append(original(*args, **kwargs))
            return captured[-1]
        return wrapper
    run.patches.function("meshseg.pipeline.infer", "infer_scene", probe)

    def infer():
        captured.clear()
        return _cli(["infer", "--checkpoint", ckpt, "--scene", scene_path,
                     "--output", out, "--seed", seed])

    reference = []

    def after(code):
        run.check("scaled-infer: exit code 0", code == 0)
        predictions = np.loadtxt(out, dtype=np.int64, ndmin=1)
        check_predictions(run, predictions, captured[-1].votes, scene.num_vertices,
                          NUM_TOY_CLASSES, crop_total,
                          reference[0] if reference else None)
        if not reference:
            reference.append(predictions)
    run.repeat("infer", infer, after, min_ops=2)
    return {"scene_vertices": scene.num_vertices, "crops": captured[-1].num_crops,
            "crop_vertices": crop_total, "parameters": default_network(seed).num_parameters()}


def check_predictions(run, predictions, votes, num_vertices, num_classes, crop_total,
                      reference=None):
    run.check("scaled-infer: one prediction per vertex", len(predictions) == num_vertices)
    run.check("scaled-infer: predictions lie in [0, C)",
              bool(((predictions >= 0) & (predictions < num_classes)).all()))
    run.check("scaled-infer: every vertex has a vote", bool((votes.sum(axis=1) >= 1).all()))
    run.check("scaled-infer: vote total equals the summed crop sizes",
              int(votes.sum()) == crop_total)
    run.check("scaled-infer: predictions are the vote argmax",
              len(predictions) == len(votes)
              and np.array_equal(predictions, np.argmax(votes, axis=1)))
    if reference is not None:
        run.check("scaled-infer: repeated calls predict the same",
                  np.array_equal(predictions, reference))


# ---------------------------------------------------------------- scene-prep


def scene_prep(run, seed, size, workdir):
    """Save and reload a scene, then `meshseg subdivide --cloud` and
    `meshseg build-hierarchy`, then read the stored hierarchy back."""
    scene_path, sub_path = workdir / "scene.ply", workdir / "subdivided.ply"
    hier_dir = workdir / "hierarchy"
    scene = run.setup(lambda: make_toy_scene(seed, size["prep_scene"]))

    built = []

    def probe(original):
        def wrapper(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]
        return wrapper
    run.patches.function("meshseg.hierarchy.build", "build_hierarchy", probe)

    def prep():
        built.clear()
        save_mesh(scene, scene_path)
        codes = [_cli(["subdivide", scene_path, sub_path, "--cloud", scene_path]),
                 _cli(["build-hierarchy", sub_path, hier_dir, "--seed", seed])]
        return codes, deserialize_hierarchy(hier_dir)

    def after(result):
        codes, loaded = result
        run.check("scene-prep: exit codes 0", codes == [0, 0])
        check_hierarchy_round_trip(run, built[-1], loaded)
        check_interpolation(run, load_mesh(sub_path), scene)
    run.repeat("prep_scene", prep, after, min_ops=2)
    return {"scene_vertices": scene.num_vertices,
            "subdivided_vertices": built[-1].input_trace.fine_count,
            "vertices_per_level": [m.num_vertices for m in built[-1].levels]}


def check_hierarchy_round_trip(run, built, loaded):
    run.check("scene-prep: stored level counts match",
              [m.num_vertices for m in built.levels] == [m.num_vertices for m in loaded.levels])
    traces = list(zip(built.traces + [built.input_trace], loaded.traces + [loaded.input_trace]))
    run.check("scene-prep: stored trace assignments match",
              len(built.traces) == len(loaded.traces)
              and all(a.coarse_count == b.coarse_count
                      and np.array_equal(a.assignment, b.assignment) for a, b in traces))
    run.check("scene-prep: stored edge sets match",
              len(built.geodesic_edges) == len(loaded.geodesic_edges)
              and all(a == b for a, b in zip(built.geodesic_edges, loaded.geodesic_edges))
              and all(a == b for a, b in zip(built.euclidean_edges, loaded.euclidean_edges)))


def check_interpolation(run, mesh, scene):
    """Labels equal those of the nearest scene vertex (either one on a tie)."""
    dist, idx = cKDTree(scene.positions).query(mesh.positions, k=2)
    first, second = scene.labels[idx[:, 0]], scene.labels[idx[:, 1]]
    tie = dist[:, 1] - dist[:, 0] <= 1e-9 * np.maximum(dist[:, 1], 1.0)
    ok = (mesh.labels == first) | (tie & (mesh.labels == second))
    run.check("scene-prep: labels match a nearest-neighbour lookup", bool(ok.all()))


WORKLOADS = {
    "toy-train": toy_train,
    "scaled-train": scaled_train,
    "scaled-infer": scaled_infer,
    "scene-prep": scene_prep,
}


def gradient_check(run, seed):
    """Finite differences on a small two-level dual network, untimed, at
    the tolerance of the acceptance suite's gradient criterion."""
    from meshseg.graph.neighborhoods import EdgeSet
    from meshseg.hierarchy.trace import PoolingTraceMap
    from meshseg.mesh.core import UNLABELED
    from meshseg.nn.gradcheck import finite_difference_check
    from meshseg.nn.loss import cross_entropy_loss

    rng = np.random.default_rng(seed)
    v0, v1 = 60, 15

    def edges(n):
        return EdgeSet([rng.choice(np.delete(np.arange(n), i), int(rng.integers(1, 5)),
                                   replace=False) for i in range(n)])
    net = SegmentationNetwork(NetworkConfig(
        num_levels=2, blocks_per_level=1, num_classes=4, input_width=9,
        geo_widths=((6, 4), (6, 4)), euc_widths=((6, 4), (6, 4)), head_hidden=5, seed=seed))
    geo, euc = [edges(v0), edges(v1)], [edges(v0), edges(v1)]
    assignment = np.concatenate([np.arange(v1), rng.integers(0, v1, v0 - v1)])
    traces = [PoolingTraceMap(rng.permutation(assignment), v1)]
    features = rng.normal(size=(v0, 9))
    labels = rng.integers(0, 4, v0)
    labels[rng.random(v0) < 0.1] = UNLABELED

    def loss_fn():
        return cross_entropy_loss(net.forward(features, geo, euc, traces, train=True), labels)[0]

    _, dlogits = cross_entropy_loss(net.forward(features, geo, euc, traces, train=True), labels)
    net.zero_grad()
    net.backward(dlogits)
    report = finite_difference_check(loss_fn, net.parameters(), tolerance=1e-4,
                                     max_entries_per_tensor=2, rng=np.random.default_rng(seed))
    if not run.check("gradients match finite differences", report.passed):
        print(report, file=sys.stderr)
