"""Command-line entry point.

Subcommands: subdivide, build-hierarchy, graph-stats, train, infer, vote,
eval. Every run that writes files writes a run manifest (command, config
snapshot, seeds, paths, timings, version) next to its primary output:
graph-stats only prints, and eval writes files only with --output.

Exit codes: 0 success, 2 input validation error, 3 configuration error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .graph.neighborhoods import NeighborhoodConfig
from .hierarchy.build import (
    DEFAULT_QEM_RATIO,
    DEFAULT_RADII,
    DEFAULT_VC_CELLS,
    HierarchyConfig,
    build_hierarchy,
)
from .hierarchy.store import HierarchyFormatError, deserialize_hierarchy, serialize_hierarchy
from .mesh.core import MeshValidationError
from .mesh.io import MeshParseError, load_mesh, save_mesh
from .mesh.subdivide import interpolate_from_point_cloud, midpoint_subdivide
from .nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nn.network import NetworkConfig, SegmentationNetwork
from .pipeline.crops import CropConfig, CropGridError
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


# argparse reads "-1e-3" and "-inf" as flags, since its own pattern takes
# only "-1" and "-.5" as negative numbers. This one takes every float and
# comma-separated list of them, so that their range checks run.
_NUMBER = r"(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan"
_NEGATIVE_NUMBER = re.compile(rf"-({_NUMBER})(,[-+]?({_NUMBER}))*$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ConfigError(message)


def _domain(convert, ok, domain: str):
    """An argparse type: a value `convert` reads and `ok` accepts, else an error naming `domain`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value
    return parse


def _list_of(item):
    """An argparse type: a comma-separated list, each item read by `item`."""
    return lambda text: tuple(item(x) for x in text.split(","))


_positive = _domain(float, lambda x: 0 < x < np.inf, "positive and finite")
_fraction = _domain(float, lambda x: 0 < x < 1, "in (0, 1)")
_count = _domain(int, lambda n: 1 <= n < 2**63, "an integer in [1, 2^63)")
_natural = _domain(int, lambda n: 0 <= n < 2**63, "an integer in [0, 2^63)")


def _limit_threads(n):
    """Cap BLAS worker threads at n, and at the CPU count: through
    threadpoolctl when it is installed, else through NumPy's bundled
    OpenBLAS; warn when neither is found."""
    if n is None:
        return
    if not parallel.limit_blas_threads(min(n, os.cpu_count() or 1)):
        print(f"warning: --threads {n} not applied: neither threadpoolctl nor "
              f"NumPy's OpenBLAS was found", file=sys.stderr)


def _write_run_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                        timings: dict, outputs: list):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "outputs": [str(p) for p in outputs],
        "timings_seconds": timings,
        # ru_maxrss is in KiB; the children's is the largest of any child
        # process this one has waited for, such as infer's crop worker.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
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
    p.add_argument("--cells", type=_list_of(_positive), default=DEFAULT_VC_CELLS,
                   metavar="C0,C1,...",
                   help="vertex-clustering cell sizes in meters per level "
                        "(default 0.04,0.08,0.16,0.32)")
    p.add_argument("--qem-ratio", type=_fraction, default=DEFAULT_QEM_RATIO,
                   help="vertex reduction ratio per quadric-error level (default 0.3)")
    p.add_argument("--qem-levels", type=_natural, default=3,
                   help="number of quadric-error levels after the clustering "
                        "pre-pass (default 3)")
    p.add_argument("--fps-counts", type=_list_of(_count), default=(), metavar="N0,N1,...",
                   help="per-level vertex counts for farthest-point sampling")
    p.add_argument("--radius", type=_list_of(_positive), default=DEFAULT_RADII,
                   metavar="R0,R1,...",
                   help="Euclidean radius-graph radii per level "
                        "(default 0.05,0.10,0.20,0.40)")
    p.add_argument("--knn", type=_count, default=None,
                   help="use k-nn Euclidean graphs instead of radius graphs")


def _add_network_args(p):
    p.add_argument("--arch", choices=("dual", "geo", "euc"), default="dual",
                   help="dual geodesic+Euclidean branches, or a single branch")
    p.add_argument("--classes", type=_count, default=21, help="number of classes")
    p.add_argument("--levels", type=_count, default=4, help="network depth in mesh levels")
    p.add_argument("--widths", type=_list_of(_natural), default=None, metavar="HIDDEN,OUT",
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


def _check_qem_levels(hier_cfg: HierarchyConfig, paths, meshes):
    """Every vc+qem level has fewer vertices than the one before it, so no
    mesh can take more levels than it has vertices."""
    if hier_cfg.strategy != "vc+qem":
        return
    path, mesh = min(zip(paths, meshes), key=lambda item: item[1].num_vertices)
    if hier_cfg.num_levels > mesh.num_vertices:
        raise ConfigError(
            f"--qem-levels {hier_cfg.qem_levels}: {hier_cfg.num_levels} levels need as many "
            f"vertices, {path} has {mesh.num_vertices}")


def _check_depth(levels: int, hier_cfg: HierarchyConfig):
    if levels > hier_cfg.num_levels:
        raise ConfigError(
            f"the network needs {levels} mesh levels, the hierarchy has {hier_cfg.num_levels}")


@_config
def _crop_config(args) -> CropConfig:
    return CropConfig(extent=args.crop_extent, stride=args.crop_stride)


def _check_scene_labels(path, labels, num_classes: int):
    """A loaded training scene has labels, each UNLABELED or below num_classes."""
    if labels is None:
        raise MeshValidationError(f"{path}: scene carries no labels")
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        raise MeshValidationError(
            f"{path}: vertex {bad[0]}: label {labels[bad[0]]} outside [0, {num_classes})")


def _training_scene_paths(manifest_path) -> list:
    """Paths of the train-split scenes listed in a dataset manifest."""
    text = Path(manifest_path).read_text()
    try:
        paths = [entry["path"] for entry in json.loads(text)["scenes"]
                 if entry.get("split", "train") == "train"]
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as e:
        raise ManifestError(
            f"{manifest_path}: malformed dataset manifest ({type(e).__name__}: {e})") from e
    if not paths:
        raise ManifestError("dataset manifest has no training scenes")
    return paths


# ------------------------------------------------------------------ commands
# Each command returns the directory of its run manifest and the outputs to
# list there, or None for no manifest; `main` times it and writes the file.


def cmd_subdivide(args):
    mesh = load_mesh(args.input)
    if args.cloud is not None:
        ref = load_mesh(args.cloud)
        for name in ("colors", "labels"):
            if getattr(ref, name) is None:
                raise MeshValidationError(f"{args.cloud}: point cloud carries no {name}")
    for _ in range(args.passes):
        coarse = mesh.num_vertices
        mesh = midpoint_subdivide(mesh, args.min_edge_len)
        if mesh.num_vertices == coarse:
            break  # no edge split, so no later pass would split one either
    if args.cloud is not None:
        mesh = interpolate_from_point_cloud(mesh, ref)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_mesh(mesh, out, binary=not args.ascii)
    print(f"{mesh.num_vertices} vertices, {mesh.num_faces} faces -> {out}")
    return out.parent, [out]


def cmd_build_hierarchy(args):
    config = _hierarchy_config(args)
    mesh = load_mesh(args.input)
    _check_qem_levels(config, [args.input], [mesh])
    neigh_cfgs = _neighborhood_configs(args, config.num_levels)
    hier = build_hierarchy(mesh, config)
    hier.build_euclidean_edges(neigh_cfgs)
    out = Path(args.output)
    serialize_hierarchy(hier, out)
    counts = ", ".join(str(m.num_vertices) for m in hier.levels)
    print(f"hierarchy with {hier.num_levels} levels ({counts} vertices) -> {out}")
    return out, [out]


def cmd_graph_stats(args):
    hier = deserialize_hierarchy(args.hierarchy)
    stats = []
    for lvl in range(hier.num_levels):
        entry = {"level": lvl, "vertices": hier.levels[lvl].num_vertices}
        for name, edges in (("geodesic", hier.geodesic_edges[lvl]),
                            ("euclidean", hier.euclidean_edges[lvl])):
            degrees = edges.degrees
            entry[name] = {
                "edges": int(degrees.sum()),
                "mean_degree": float(degrees.mean()),
                "max_degree": int(degrees.max()),
            }
        stats.append(entry)
    print(json.dumps(stats, indent=2))
    return None


def cmd_train(args):
    hier_cfg = _hierarchy_config(args)
    _check_depth(args.levels, hier_cfg)
    net_cfg = _network_config(args)
    crop_cfg = _crop_config(args)
    paths = _training_scene_paths(args.manifest)
    scenes = []
    for path in paths:
        scenes.append(load_mesh(path))
        _check_scene_labels(path, scenes[-1].labels, args.classes)
    _check_qem_levels(hier_cfg, paths, scenes)
    neigh_cfgs = _neighborhood_configs(args, hier_cfg.num_levels)

    try:
        net = SegmentationNetwork(net_cfg)
    except MemoryError as e:
        raise ConfigError(f"the network that --classes {args.classes} and --widths build "
                          f"cannot be allocated ({e})") from e
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
    print(f"final loss {history[-1]:.4f} -> {ckpt}")
    return out, [ckpt]


def cmd_infer(args):
    hier_cfg = _hierarchy_config(args)
    crop_cfg = _crop_config(args)
    net = load_checkpoint(args.checkpoint)
    _check_depth(net.config.num_levels, hier_cfg)
    scene = load_mesh(args.scene)
    _check_qem_levels(hier_cfg, [args.scene], [scene])
    neigh_cfgs = _neighborhood_configs(args, hier_cfg.num_levels)
    # A second crop process, where two CPUs are free and --threads allows
    # it; it runs only while BLAS is pinned to one thread, else the crops
    # run here (meshseg.parallel.map_in_order).
    processes = min(2, len(os.sched_getaffinity(0)), args.threads or 2)
    result = infer_scene(net, scene, hier_cfg, neigh_cfgs, crop_cfg,
                         res_threshold=args.res_test, seed=args.seed, processes=processes)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(out, result.predictions, fmt="%d")
    print(f"{len(result.predictions)} predictions over {result.num_crops} crops -> {out}")
    return out.parent, [out]


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
    runs = [_read_predictions(p, args.classes) for p in args.predictions]
    if len({len(r) for r in runs}) != 1:
        raise MeshValidationError("prediction files differ in length")
    voted = vote_over_runs(runs)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(out, voted, fmt="%d")
    print(f"majority vote over {len(runs)} runs -> {out}")
    return out.parent, [out]


def cmd_eval(args):
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
    except (MemoryError, OverflowError) as e:
        n = args.classes
        raise ConfigError(f"--classes {n} needs a {n} x {n} confusion matrix of {n * n} "
                          f"counts, which cannot be allocated ({e})") from e
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
        return out, [out / "metrics.json"]
    return None


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="meshseg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--threads", type=_count, default=None,
                        help="cap BLAS threads, and infer's crop processes at "
                             "min(2, N, CPUs); 1 runs the crops serially "
                             "(default: the library's choice of threads, min(2, CPUs) processes)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subdivide", help="midpoint-subdivide a mesh, optionally "
                                         "pulling labels/colors from a point cloud")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--min-edge-len", type=_positive, default=0.02,
                   help="split edges at least this long, in meters (default 0.02)")
    p.add_argument("--passes", type=_natural, default=1, help="refinement passes (default 1)")
    p.add_argument("--cloud", default=None,
                   help="labeled point cloud (PLY) to interpolate labels/colors from")
    p.add_argument("--ascii", action="store_true", help="write ASCII output")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("build-hierarchy", help="build and store a mesh hierarchy")
    p.add_argument("input")
    p.add_argument("output")
    _add_hierarchy_args(p)
    p.add_argument("--seed", type=_natural, default=0)
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
    p.add_argument("--epochs", type=_count, default=100)
    p.add_argument("--batch-size", type=_count, default=4, help="crops per step (default 4)")
    p.add_argument("--res-train", type=_count, default=15,
                   help="edge-sampling threshold during training (default 15)")
    p.add_argument("--lr", type=_positive, default=1e-3,
                   help="base learning rate (default 1e-3, halved every 40 epochs)")
    p.add_argument("--crop-extent", type=_positive, default=3.0)
    p.add_argument("--crop-stride", type=_positive, default=1.5)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="predict per-vertex classes for a full scene")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--output", required=True, help="predictions file, one class per line")
    _add_hierarchy_args(p)
    p.add_argument("--res-test", type=_count, default=25,
                   help="edge-sampling threshold during inference (default 25)")
    p.add_argument("--crop-extent", type=_positive, default=3.0)
    p.add_argument("--crop-stride", type=_positive, default=1.5)
    p.add_argument("--seed", type=_natural, default=0)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("vote", help="majority-vote several prediction files")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--output", required=True)
    p.add_argument("--classes", type=_count, default=21)
    p.set_defaults(func=cmd_vote)

    p = sub.add_parser("eval", help="score predictions against scene labels")
    p.add_argument("--scene", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--classes", type=_count, default=21)
    p.add_argument("--output", default=None, help="directory for metrics.json/confusion.csv")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _limit_threads(args.threads)
        t0 = time.perf_counter()
        written = args.func(args)
        if written is not None:
            out_dir, outputs = written
            _write_run_manifest(out_dir, args.command, args,
                                {"total": time.perf_counter() - t0}, outputs)
        return EXIT_OK
    except (ConfigError, CropGridError) as e:
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
