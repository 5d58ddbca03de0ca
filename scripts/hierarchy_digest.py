#!/usr/bin/env python3
"""One sha256 over written meshes and stored hierarchies, to show that a
change keeps them bit-identical.

It hashes
- the meshes that `meshseg subdivide --cloud` writes from toy scenes 1-5, as
  binary PLY, ASCII PLY and OFF,
- the `hierarchy.npz` bytes of `meshseg build-hierarchy` (CLI defaults) on
  each subdivided scene, read back from its ASCII PLY,
- the same for the other two strategies, `--strategy vc` and
  `--strategy fps`, on subdivided scene 1, and
- the `hierarchy.npz` bytes of the CLI-default vc+qem hierarchy, with
  Euclidean edges, of every crop that `meshseg infer` sweeps over the
  6x6-tile toy scene.

The store writes equal hierarchies as equal bytes, so two checkouts print
the same digest exactly when they write the same meshes and build the same
hierarchies. Each part's digest goes to stderr, the combined one to stdout.
Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/hierarchy_digest.py
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

from meshseg import cli
from meshseg.graph.neighborhoods import NeighborhoodConfig
from meshseg.hierarchy.build import DEFAULT_RADII, HierarchyConfig, build_hierarchy
from meshseg.hierarchy.store import ARCHIVE, serialize_hierarchy
from meshseg.mesh.io import save_mesh
from meshseg.pipeline.crops import CropConfig, crop_windows, submesh
from meshseg.pipeline.toydata import ToySceneConfig, make_toy_scene

PREP_SCENES = range(1, 6)
# The non-default strategies, each built on one subdivided scene.
STRATEGY_SCENE = 1
STRATEGIES = {"vc": ["--strategy", "vc"],
              "fps": ["--strategy", "fps", "--fps-counts", "2000,600,200,60"]}
CROP_SCENE = ToySceneConfig(tiles_per_side=6)


def _cli(argv):
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"meshseg {argv[0]} exited {code}")


def prep_archives(workdir: Path):
    """(name, path) of the subdivided toy scenes and their hierarchy.npz."""
    for seed in PREP_SCENES:
        scene, out = workdir / f"scene{seed}.ply", workdir / f"scene{seed}_hier"
        save_mesh(make_toy_scene(seed), scene)
        subs = {suffix: workdir / f"scene{seed}_sub{suffix}"
                for suffix in (".ply", ".ascii.ply", ".off")}
        for suffix, sub in subs.items():
            ascii_flag = ["--ascii"] if suffix == ".ascii.ply" else []
            _cli(["subdivide", scene, sub, "--cloud", scene, *ascii_flag])
            yield f"scene{seed}_sub{suffix}", sub
        _cli(["build-hierarchy", subs[".ascii.ply"], out, "--seed", seed])
        yield f"scene{seed}", out / ARCHIVE
        if seed == STRATEGY_SCENE:
            for strategy, args in STRATEGIES.items():
                out = workdir / f"scene{seed}_{strategy}_hier"
                _cli(["build-hierarchy", subs[".ascii.ply"], out, "--seed", seed, *args])
                yield f"scene{seed}_{strategy}", out / ARCHIVE


def crop_archives(workdir: Path):
    """(name, hierarchy.npz path) of the crop hierarchies `infer` builds."""
    scene = make_toy_scene(0, CROP_SCENE)
    config = HierarchyConfig(strategy="vc+qem")
    radii = [NeighborhoodConfig(kind="radius", radius=r) for r in DEFAULT_RADII]
    for w, idx in enumerate(crop_windows(scene, CropConfig())):
        hier = build_hierarchy(submesh(scene, idx), config)
        hier.build_euclidean_edges(radii)
        out = workdir / f"crop{w}"
        serialize_hierarchy(hier, out)
        yield f"crop{w}", out / ARCHIVE


def main():
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, path in [*prep_archives(workdir), *crop_archives(workdir)]:
            data = path.read_bytes()
            print(f"{name} {hashlib.sha256(data).hexdigest()}", file=sys.stderr)
            total.update(data)
    print(total.hexdigest())


if __name__ == "__main__":
    main()
