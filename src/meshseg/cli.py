"""Command-line entry point.

Subcommands: subdivide, build-hierarchy, graph-stats, train, infer, vote,
eval. Every run writes a run manifest (command, config snapshot, seeds,
paths, timings, version) next to its primary output.

Exit codes: 0 success, 2 input validation error, 3 configuration error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .graph.neighborhoods import NeighborhoodConfig
from .hierarchy.build import (
    DEFAULT_QEM_RATIO,
    DEFAULT_RADII,
    DEFAULT_VC_CELLS,
    HierarchyConfig,
    build_hierarchy,
)
from .hierarchy.store import HierarchyFormatError, deserialize_hierarchy, serialize_hierarchy
from .mesh.core import UNLABELED, LabeledPointCloud, MeshValidationError
from .mesh.io import MeshParseError, load_mesh, save_mesh
from .mesh.subdivide import interpolate_from_point_cloud, midpoint_subdivide
from .nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nn.network import NetworkConfig, SegmentationNetwork
from .pipeline.crops import CropConfig
from .pipeline.infer import infer_scene, vote_over_runs
from .pipeline.metrics import evaluate
from .pipeline.train import TrainConfig, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


class ManifestError(ValueError):
    pass


def _config(build):
    """Report a value that a config dataclass rejects as a configuration error."""
    @functools.wraps(build)
    def checked(*args):
        try:
            return build(*args)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    return checked


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _floats(text: str):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated floats, got {text!r}")


def _ints(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


def _limit_threads(n):
    """Best-effort cap on BLAS worker threads (advisory)."""
    if n is None:
        return
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print(f"warning: --threads {n} not applied: threadpoolctl is not installed",
              file=sys.stderr)
        return
    threadpool_limits(limits=n)


def _write_run_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                        timings: dict, outputs: list):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "outputs": [str(p) for p in outputs],
        "timings_seconds": timings,
    }
    path = out_dir / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path


@_config
def _hierarchy_config(args) -> HierarchyConfig:
    return HierarchyConfig(
        strategy=args.strategy,
        cells=args.cells,
        qem_ratio=args.qem_ratio,
        qem_levels=args.qem_levels,
        fps_counts=args.fps_counts,
        fps_seed=args.seed,
    )


@_config
def _neighborhood_configs(args, num_levels: int):
    if args.knn is not None:
        return [NeighborhoodConfig(kind="knn", k=args.knn) for _ in range(num_levels)]
    radii = args.radius
    if len(radii) == 1:
        radii = radii * num_levels
    if len(radii) != num_levels:
        raise ConfigError(
            f"need 1 or {num_levels} radii, got {len(radii)}"
        )
    return [NeighborhoodConfig(kind="radius", radius=r) for r in radii]


def _add_hierarchy_args(p):
    p.add_argument("--strategy", choices=("vc", "vc+qem", "fps"), default="vc+qem",
                   help="pooling strategy (default: vertex clustering then "
                        "quadric-error contractions)")
    p.add_argument("--cells", type=_floats, default=DEFAULT_VC_CELLS,
                   metavar="C0,C1,...",
                   help="vertex-clustering cell sizes in meters per level "
                        "(default 0.04,0.08,0.16,0.32)")
    p.add_argument("--qem-ratio", type=float, default=DEFAULT_QEM_RATIO,
                   help="vertex reduction ratio per quadric-error level (default 0.3)")
    p.add_argument("--qem-levels", type=int, default=3,
                   help="number of quadric-error levels after the clustering "
                        "pre-pass (default 3)")
    p.add_argument("--fps-counts", type=_ints, default=(), metavar="N0,N1,...",
                   help="per-level vertex counts for farthest-point sampling")
    p.add_argument("--radius", type=_floats, default=DEFAULT_RADII,
                   metavar="R0,R1,...",
                   help="Euclidean radius-graph radii per level "
                        "(default 0.05,0.10,0.20,0.40)")
    p.add_argument("--knn", type=int, default=None,
                   help="use k-nn Euclidean graphs instead of radius graphs")


def _add_network_args(p):
    p.add_argument("--arch", choices=("dual", "geo", "euc"), default="dual",
                   help="dual geodesic+Euclidean branches, or a single branch")
    p.add_argument("--classes", type=int, default=21, help="number of classes")
    p.add_argument("--levels", type=int, default=4, help="network depth in mesh levels")
    p.add_argument("--widths", type=_ints, default=None, metavar="HIDDEN,OUT",
                   help="override per-branch (hidden, out) widths, same at every level")


@_config
def _network_config(args) -> NetworkConfig:
    if args.widths is None:
        if args.arch == "dual":
            return NetworkConfig.dual_default(args.classes, args.levels, args.seed)
        return NetworkConfig.single_default(args.arch, args.classes, args.levels, args.seed)
    if len(args.widths) != 2:
        raise ConfigError("--widths takes exactly two integers: hidden,out")
    pair = (tuple(args.widths),) * args.levels
    none = ((0, 0),) * args.levels
    geo = pair if args.arch in ("dual", "geo") else none
    euc = pair if args.arch in ("dual", "euc") else none
    return NetworkConfig(num_levels=args.levels, num_classes=args.classes,
                         geo_widths=geo, euc_widths=euc, seed=args.seed)


def _check_depth(net_cfg: NetworkConfig, hier_cfg: HierarchyConfig):
    if net_cfg.num_levels > hier_cfg.num_levels:
        raise ConfigError(
            f"the network needs {net_cfg.num_levels} mesh levels, "
            f"the hierarchy has {hier_cfg.num_levels}")


def _check_at_least_one(**options):
    for flag, value in options.items():
        if value < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be at least 1")


@_config
def _crop_config(args) -> CropConfig:
    return CropConfig(extent=args.crop_extent, stride=args.crop_stride)


def _check_scene_labels(path, labels, num_classes: int):
    """Every label is UNLABELED or a class in [0, num_classes)."""
    if labels is None:
        return
    bad = np.flatnonzero((labels != UNLABELED) & ((labels < 0) | (labels >= num_classes)))
    if bad.size:
        raise MeshValidationError(
            f"{path}: vertex {bad[0]}: label {labels[bad[0]]} outside [0, {num_classes})")


def _training_scene_paths(manifest_path) -> list:
    """Paths of the train-split scenes listed in a dataset manifest."""
    text = Path(manifest_path).read_text()
    try:
        paths = [entry["path"] for entry in json.loads(text)["scenes"]
                 if entry.get("split", "train") == "train"]
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise ManifestError(
            f"{manifest_path}: malformed dataset manifest ({type(e).__name__}: {e})") from e
    if not paths:
        raise ManifestError("dataset manifest has no training scenes")
    return paths


# ------------------------------------------------------------------ commands


def cmd_subdivide(args):
    t0 = time.perf_counter()
    if not 0 < args.min_edge_len < np.inf:
        raise ConfigError("--min-edge-len must be positive and finite")
    mesh = load_mesh(args.input)
    for _ in range(args.passes):
        mesh = midpoint_subdivide(mesh, args.min_edge_len)
    if args.cloud is not None:
        ref = load_mesh(args.cloud)
        mesh = interpolate_from_point_cloud(
            mesh, LabeledPointCloud(ref.positions, ref.colors, ref.labels)
        )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_mesh(mesh, out, binary=not args.ascii)
    _write_run_manifest(out.parent, "subdivide", args,
                        {"total": time.perf_counter() - t0}, [out])
    print(f"{mesh.num_vertices} vertices, {mesh.num_faces} faces -> {out}")
    return EXIT_OK


def cmd_build_hierarchy(args):
    t0 = time.perf_counter()
    config = _hierarchy_config(args)
    neigh_cfgs = _neighborhood_configs(args, config.num_levels)
    mesh = load_mesh(args.input)
    hier = build_hierarchy(mesh, config)
    hier.build_euclidean_edges(neigh_cfgs)
    out = Path(args.output)
    serialize_hierarchy(hier, out, {
        "strategy": config.strategy,
        "cells": list(config.cells),
        "qem_ratio": config.qem_ratio,
        "source": str(args.input),
    })
    _write_run_manifest(out, "build-hierarchy", args,
                        {"total": time.perf_counter() - t0}, [out])
    counts = ", ".join(str(m.num_vertices) for m in hier.levels)
    print(f"hierarchy with {hier.num_levels} levels ({counts} vertices) -> {out}")
    return EXIT_OK


def cmd_graph_stats(args):
    hier = deserialize_hierarchy(args.hierarchy)
    stats = []
    for lvl in range(hier.num_levels):
        entry = {"level": lvl, "vertices": hier.levels[lvl].num_vertices}
        for name, edges in (("geodesic", hier.geodesic_edges[lvl]),
                            ("euclidean", (hier.euclidean_edges or [None] * hier.num_levels)[lvl])):
            if edges is None:
                continue
            degrees = edges.degrees
            entry[name] = {
                "edges": int(degrees.sum()),
                "mean_degree": float(degrees.mean()),
                "max_degree": int(degrees.max()),
            }
        stats.append(entry)
    print(json.dumps(stats, indent=2))
    return EXIT_OK


def cmd_train(args):
    t0 = time.perf_counter()
    net_cfg = _network_config(args)
    hier_cfg = _hierarchy_config(args)
    neigh_cfgs = _neighborhood_configs(args, hier_cfg.num_levels)
    crop_cfg = _crop_config(args)
    _check_depth(net_cfg, hier_cfg)
    _check_at_least_one(classes=args.classes, epochs=args.epochs,
                        batch_size=args.batch_size, res_train=args.res_train)
    scenes = []
    for path in _training_scene_paths(args.manifest):
        scenes.append(load_mesh(path))
        _check_scene_labels(path, scenes[-1].labels, args.classes)

    net = SegmentationNetwork(net_cfg)
    train_cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        res_threshold=args.res_train,
        base_lr=args.lr,
        seed=args.seed,
        augment=not args.no_augment,
        crop=crop_cfg,
    )
    history = train(net, scenes, hier_cfg, neigh_cfgs, train_cfg,
                    log=print if not args.quiet else None)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.bin"
    save_checkpoint(net, ckpt)
    (out / "loss_history.json").write_text(json.dumps(history) + "\n")
    _write_run_manifest(out, "train", args,
                        {"total": time.perf_counter() - t0}, [ckpt])
    print(f"final loss {history[-1]:.4f} -> {ckpt}")
    return EXIT_OK


def cmd_infer(args):
    t0 = time.perf_counter()
    hier_cfg = _hierarchy_config(args)
    neigh_cfgs = _neighborhood_configs(args, hier_cfg.num_levels)
    crop_cfg = _crop_config(args)
    _check_at_least_one(res_test=args.res_test)
    net = load_checkpoint(args.checkpoint)
    _check_depth(net.config, hier_cfg)
    scene = load_mesh(args.scene)
    result = infer_scene(net, scene, hier_cfg, neigh_cfgs, crop_cfg,
                         res_threshold=args.res_test, seed=args.seed)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(out, result.predictions, fmt="%d")
    _write_run_manifest(out.parent, "infer", args,
                        {"total": result.elapsed_seconds}, [out])
    print(f"{len(result.predictions)} predictions over {result.num_crops} crops "
          f"in {result.elapsed_seconds:.1f}s -> {out}")
    return EXIT_OK


def _read_predictions(path, num_classes: int) -> np.ndarray:
    """One class index in [0, num_classes) per line."""
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file without data; it is rejected below.
            warnings.simplefilter("ignore", UserWarning)
            predictions = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except ValueError as e:  # a non-integer token, or non-UTF-8 bytes
        raise MeshValidationError(f"{path}: expected one integer class per line ({e})") from e
    if predictions.ndim != 1:
        raise MeshValidationError(f"{path}: expected one integer class per line")
    if predictions.size == 0:
        raise MeshValidationError(f"{path}: no predictions")
    bad = np.flatnonzero((predictions < 0) | (predictions >= num_classes))
    if bad.size:
        raise MeshValidationError(
            f"{path}: line {bad[0] + 1}: class {predictions[bad[0]]} "
            f"outside [0, {num_classes})")
    return predictions


def cmd_vote(args):
    _check_at_least_one(classes=args.classes)
    runs = [_read_predictions(p, args.classes) for p in args.predictions]
    if len({len(r) for r in runs}) != 1:
        raise MeshValidationError("prediction files differ in length")
    voted = vote_over_runs(runs, args.classes)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(out, voted, fmt="%d")
    print(f"majority vote over {len(runs)} runs -> {out}")
    return EXIT_OK


def cmd_eval(args):
    _check_at_least_one(classes=args.classes)
    scene = load_mesh(args.scene)
    if scene.labels is None:
        raise MeshValidationError(f"{args.scene}: scene carries no labels")
    predictions = _read_predictions(args.predictions, args.classes)
    if len(predictions) != scene.num_vertices:
        raise MeshValidationError(
            f"{len(predictions)} predictions for {scene.num_vertices} vertices"
        )
    try:
        result = evaluate(scene.labels, predictions, args.classes)
    except ValueError as e:  # a scene label outside [0, --classes), or none labeled
        raise MeshValidationError(f"{args.scene}: {e}") from e
    print(result.summary())
    if args.output is not None:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        metrics = {
            "mean_iou": result.mean_iou,
            "mean_accuracy": result.mean_accuracy,
            "overall_accuracy": result.overall_accuracy,
            "iou": [None if np.isnan(x) else x for x in result.iou],
            "class_accuracy": [None if np.isnan(x) else x for x in result.class_accuracy],
        }
        (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
        with open(out / "confusion.csv", "w") as f:
            for row in result.confusion:
                f.write(",".join(str(int(x)) for x in row) + "\n")
        _write_run_manifest(out, "eval", args, {}, [out / "metrics.json"])
    return EXIT_OK


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="meshseg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS threads (default: library choice)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subdivide", help="midpoint-subdivide a mesh, optionally "
                                         "pulling labels/colors from a point cloud")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--min-edge-len", type=float, default=0.02,
                   help="split edges at least this long, in meters (default 0.02)")
    p.add_argument("--passes", type=int, default=1, help="refinement passes (default 1)")
    p.add_argument("--cloud", default=None,
                   help="labeled point cloud (PLY) to interpolate labels/colors from")
    p.add_argument("--ascii", action="store_true", help="write ASCII output")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("build-hierarchy", help="build and store a mesh hierarchy")
    p.add_argument("input")
    p.add_argument("output")
    _add_hierarchy_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build_hierarchy)

    p = sub.add_parser("graph-stats", help="per-level neighborhood statistics "
                                           "of a stored hierarchy")
    p.add_argument("hierarchy")
    p.set_defaults(func=cmd_graph_stats)

    p = sub.add_parser("train", help="train a segmentation network")
    p.add_argument("--manifest", required=True,
                   help="dataset manifest JSON ({\"scenes\": [{\"path\", \"split\"}]})")
    p.add_argument("--output", required=True, help="output directory")
    _add_hierarchy_args(p)
    _add_network_args(p)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=4, help="crops per step (default 4)")
    p.add_argument("--res-train", type=int, default=15,
                   help="edge-sampling threshold during training (default 15)")
    p.add_argument("--lr", type=float, default=1e-3,
                   help="base learning rate (default 1e-3, halved every 40 epochs)")
    p.add_argument("--crop-extent", type=float, default=3.0)
    p.add_argument("--crop-stride", type=float, default=1.5)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="predict per-vertex classes for a full scene")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--output", required=True, help="predictions file, one class per line")
    _add_hierarchy_args(p)
    p.add_argument("--res-test", type=int, default=25,
                   help="edge-sampling threshold during inference (default 25)")
    p.add_argument("--crop-extent", type=float, default=3.0)
    p.add_argument("--crop-stride", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("vote", help="majority-vote several prediction files")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--output", required=True)
    p.add_argument("--classes", type=int, default=21)
    p.set_defaults(func=cmd_vote)

    p = sub.add_parser("eval", help="score predictions against scene labels")
    p.add_argument("--scene", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--classes", type=int, default=21)
    p.add_argument("--output", default=None, help="directory for metrics.json/confusion.csv")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _limit_threads(args.threads)
        return args.func(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (MeshParseError, MeshValidationError, HierarchyFormatError,
            CheckpointError, ManifestError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
