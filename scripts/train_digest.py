#!/usr/bin/env python3
"""Two sha256 digests over a short training run, one per precision, to show
that a change keeps the network's arithmetic bit-identical.

On the scaled-train sample of the benchmark (toy scene 1 at 4x4 tiles and
0.045 m spacing, the CLI-default vc+qem hierarchy and radii), it builds the
default dual network with seed 1 and runs 3 `train_step`s with Adam at
lr 1e-3 and RES T=15. After each step it hashes
- the loss,
- every parameter value,
- every parameter gradient, and
- every BatchNorm running mean and variance;
then it hashes the eval-mode logits of the trained network (RES T=15).

The network computes in its features' dtype. The float64 digest feeds it
the sample's features computed in float64 (`vertex_features(mesh,
np.float64)`): the arithmetic of the gradient oracles. Each of its step
losses (as its repr, so that a change at rounding level can be read off)
and each part's digest go to stderr, and the combined digest to stdout.
The float32 digest runs the same steps on a fresh network fed the
pipeline's float32 features, as `train` and `infer` do; its losses and its
combined digest go to stderr, the digest on the line `float32 <digest>`.
Last, the float64-trained network goes through `save_checkpoint` and
`load_checkpoint`, and the digest of the loaded network's eval logits goes
to stderr on the line `checkpoint <digest>`; it pins the checkpoint format
to storing each value's float32 rounding. Then `infer_scene` runs the
float64-trained network over the 4 crops of toy scene 5, once on one
process and once on two, each at one BLAS thread; the sha256 of each vote
table goes to stderr on the line `infer <one process> <two processes>`,
and the script exits 1 if they differ. Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/train_digest.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from meshseg.graph.neighborhoods import NeighborhoodConfig
from meshseg.hierarchy.build import DEFAULT_RADII, HierarchyConfig
from meshseg.nn.checkpoint import load_checkpoint, save_checkpoint
from meshseg.nn.layers import BatchNorm
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.nn.optim import Adam
from meshseg.parallel import one_blas_thread
from meshseg.pipeline.features import vertex_features
from meshseg.pipeline.infer import infer_scene
from meshseg.pipeline.toydata import NUM_TOY_CLASSES, ToySceneConfig, make_toy_scene
from meshseg.pipeline.train import Sample, network_inputs, prepare_sample, train_step

SEED = 1
STEPS = 3
RES_THRESHOLD = 15
SCENE = ToySceneConfig(tiles_per_side=4, tile_spacing=0.045)


def eval_logits(net, sample):
    hier = sample.hierarchy
    return net.forward(sample.features,
                       *network_inputs(net, hier.geodesic_edges, hier.euclidean_edges,
                                       hier.traces, RES_THRESHOLD, SEED),
                       train=False)


def digest(sample, prefix=""):
    """The combined digest of the training run on sample, and the trained
    network; stderr gets each loss, and with no prefix each part's digest."""
    net = SegmentationNetwork(NetworkConfig.dual_default(NUM_TOY_CLASSES, 4, SEED))
    optimizer = Adam(net.parameters(), lr=1e-3)
    rng = np.random.default_rng(SEED)
    parts = {name: hashlib.sha256() for name in
             ("losses", "parameters", "gradients", "running_stats", "eval_logits")}
    for step in range(STEPS):
        loss = train_step(net, optimizer, [sample], RES_THRESHOLD, int(rng.integers(2 ** 31)))
        print(f"{prefix}loss {step} {float(loss)!r}", file=sys.stderr)
        parts["losses"].update(np.float64(loss).tobytes())
        for _, p in net.parameters():
            parts["parameters"].update(p.value.tobytes())
            parts["gradients"].update(p.grad.tobytes())
        for _, m in net.named_modules():
            if isinstance(m, BatchNorm):
                parts["running_stats"].update(m.running_mean.tobytes())
                parts["running_stats"].update(m.running_var.tobytes())
    parts["eval_logits"].update(eval_logits(net, sample).tobytes())

    total = hashlib.sha256()
    for name, part in parts.items():
        if not prefix:
            print(f"{name} {part.hexdigest()}", file=sys.stderr)
        total.update(part.digest())
    return total.hexdigest(), net


def main():
    hier_config = HierarchyConfig(strategy="vc+qem", fps_seed=SEED)
    neigh_configs = [NeighborhoodConfig(kind="radius", radius=r) for r in DEFAULT_RADII]
    sample = prepare_sample(make_toy_scene(SEED, SCENE), hier_config, neigh_configs)
    double = Sample(sample.hierarchy, vertex_features(sample.hierarchy.levels[0], np.float64))
    total, net = digest(double)
    print(total)
    print(f"float32 {digest(sample, 'float32 ')[0]}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(net, Path(tmp) / "checkpoint.bin")
        loaded = load_checkpoint(Path(tmp) / "checkpoint.bin")
    logits = eval_logits(loaded, double)
    print(f"checkpoint {hashlib.sha256(logits.tobytes()).hexdigest()}", file=sys.stderr)

    def votes_digest(processes):
        result = infer_scene(net, make_toy_scene(5), hier_config, neigh_configs,
                             res_threshold=RES_THRESHOLD, seed=SEED, processes=processes)
        return hashlib.sha256(result.votes.tobytes()).hexdigest()
    with one_blas_thread():
        serial = votes_digest(1)
    split = votes_digest(2)  # pins BLAS to one thread itself
    print(f"infer {serial} {split}", file=sys.stderr)
    if serial != split:
        sys.exit(1)


if __name__ == "__main__":
    main()
