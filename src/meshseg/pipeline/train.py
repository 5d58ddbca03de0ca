"""Training loop: crops -> hierarchies -> batched forward/backward -> Adam."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..graph.neighborhoods import EdgeSet, NeighborhoodConfig
from ..graph.res import res_sample
from ..hierarchy.build import Hierarchy, HierarchyConfig, build_hierarchy, merge_hierarchies
from ..hierarchy.trace import PoolingTraceMap
from ..mesh.core import Mesh, MeshValidationError
from ..nn.loss import cross_entropy_loss
from ..nn.network import SegmentationNetwork
from ..nn.optim import Adam, learning_rate
from ..parallel import ordered_map
from .augment import random_affine
from .crops import CropConfig, crop_scene, reject_crop
from .features import vertex_features


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 4
    res_threshold: int = 15
    base_lr: float = 1e-3
    seed: int = 0
    augment: bool = True
    crop: CropConfig = field(default_factory=CropConfig)


@dataclass
class Sample:
    """One crop, fully prepared for the network."""

    hierarchy: Hierarchy   # its level 0 carries the labels, if the crop has them
    features: np.ndarray   # (V0, 9) float32 at level 0


def prepare_sample(crop: Mesh, hier_config: HierarchyConfig,
                   neigh_configs: Sequence[NeighborhoodConfig]) -> Sample:
    hier = build_hierarchy(crop, hier_config)
    hier.build_euclidean_edges(neigh_configs)
    return Sample(hier, vertex_features(hier.levels[0]))


def collect_crops(scenes: Sequence[Mesh], crop_config: CropConfig) -> List[Mesh]:
    """Sweep every scene and drop mostly-unlabeled crops; MeshValidationError
    when none is left."""
    crops = []
    for scene in scenes:
        for crop in crop_scene(scene, crop_config):
            if not reject_crop(crop):
                crops.append(crop)
    if not crops:
        raise MeshValidationError("every crop was rejected; nothing to train on")
    return crops


# Seed offset of the Euclidean edge sets' RES streams from the geodesic ones.
EUCLIDEAN_SEED_OFFSET = 1000003


def network_inputs(net: SegmentationNetwork, geo_edges: Sequence[EdgeSet],
                   euc_edges: Sequence[EdgeSet], traces: Sequence[PoolingTraceMap],
                   res_threshold: int,
                   seed: int) -> Tuple[List[EdgeSet], List[EdgeSet], List[PoolingTraceMap]]:
    """The geodesic and Euclidean edge sets and the traces that `net.forward`
    reads, cut to the network's depth: those of one hierarchy, or the union
    of a batch's from `merge_hierarchies`.

    Every edge set is RES-thinned at res_threshold: geodesic level l with
    seed + l, Euclidean level l with seed + EUCLIDEAN_SEED_OFFSET + l.
    """
    L = net.config.num_levels
    geo = [res_sample(e, res_threshold, seed + lvl) for lvl, e in enumerate(geo_edges[:L])]
    euc = [res_sample(e, res_threshold, seed + EUCLIDEAN_SEED_OFFSET + lvl)
           for lvl, e in enumerate(euc_edges[:L])]
    return geo, euc, traces[:L - 1]


def train_step(net: SegmentationNetwork, optimizer: Adam, samples: Sequence[Sample],
               res_threshold: int, res_seed: int) -> float:
    """One optimizer update over a batch of crops.

    The crops are merged into one disjoint graph so batch-norm statistics
    cover the whole batch; neighborhood thinning is re-drawn per step.
    """
    features = np.concatenate([s.features for s in samples])
    labels = np.concatenate([s.hierarchy.levels[0].labels for s in samples])
    inputs = network_inputs(net, *merge_hierarchies([s.hierarchy for s in samples]),
                            res_threshold, res_seed)

    logits = net.forward(features, *inputs, train=True)
    loss, dlogits = cross_entropy_loss(logits, labels)
    net.zero_grad()
    net.backward(dlogits)
    optimizer.step()
    return loss


class _Draws:
    """`train`'s random draws, made epoch by epoch from one generator in a
    fixed order: with augmentation, one `random_affine` per crop in crop
    order; then the permutation that orders the epoch's crops; then one RES
    seed per batch. A copy of the generator replays the same epochs. The
    last two epochs drawn are kept: (crops, order, seeds)."""

    def __init__(self, rng: np.random.Generator, crops: Sequence[Mesh], batch_size: int,
                 augment: bool):
        self.rng, self.crops, self.batch_size, self.augment = rng, crops, batch_size, augment
        self.epochs, self.drawn = {}, 0

    def __getitem__(self, epoch: int):
        while self.drawn <= epoch:
            crops = ([random_affine(c, self.rng) for c in self.crops] if self.augment
                     else self.crops)
            order = self.rng.permutation(len(crops))
            seeds = [int(self.rng.integers(2 ** 31))
                     for _ in range(0, len(order), self.batch_size)]
            self.epochs[self.drawn] = (crops, order, seeds)
            self.epochs.pop(self.drawn - 2, None)
            self.drawn += 1
        return self.epochs[epoch]


def train(net: SegmentationNetwork, scenes: Sequence[Mesh],
          hier_config: HierarchyConfig,
          neigh_configs: Sequence[NeighborhoodConfig],
          config: TrainConfig = TrainConfig(),
          log=None,
          processes: int = 2) -> List[float]:
    """Full training run; returns the per-epoch mean loss history.

    Without augmentation the per-crop samples are prepared once and
    reused; with augmentation each epoch's moved crops are prepared again.
    Sample k of epoch e is item e * n + k of `meshseg.parallel.ordered_map`
    (n crops, k in the epoch's permuted order), and each batch takes its
    items with the batch's end as the horizon.

    With augmentation, processes=2 and two usable CPUs, one worker is forked
    for the whole call, with a copy of the generator as it stands after
    `collect_crops`. It replays each epoch's draws and prepares samples up
    to one epoch ahead of the steps; this process prepares a sample itself
    only when the batch it waits for has one that is not yet taken. BLAS
    is pinned to one thread for the epochs, so the history and parameters
    equal those of processes=1 at one BLAS thread. With processes=1, or
    where no worker can start (`ordered_map`), every sample is prepared
    here at the current BLAS count.
    """
    rng = np.random.default_rng(config.seed)
    crops = collect_crops(scenes, config.crop)
    n = len(crops)
    draws = _Draws(rng, crops, config.batch_size, config.augment)
    if config.augment:
        def sample(item):
            moved, order, _ = draws[item // n]
            return prepare_sample(moved[order[item % n]], hier_config, neigh_configs)
    else:
        cached = [prepare_sample(c, hier_config, neigh_configs) for c in crops]
        processes = 1  # nothing is left to prepare

        def sample(item):
            return cached[draws[item // n][1][item % n]]

    optimizer = Adam(net.parameters(), lr=config.base_lr)
    history = []
    with ordered_map(sample, config.epochs * n, processes, window=n) as take:
        for epoch in range(config.epochs):
            optimizer.lr = learning_rate(epoch, config.base_lr)
            t0 = time.perf_counter()
            losses = []
            for start, res_seed in zip(range(0, n, config.batch_size), draws[epoch][2]):
                stop = min(start + config.batch_size, n)
                batch = [take(epoch * n + stop) for _ in range(start, stop)]
                losses.append(train_step(net, optimizer, batch,
                                         config.res_threshold, res_seed))
            history.append(float(np.mean(losses)))
            if log is not None:
                log(f"epoch {epoch:3d}  loss {history[-1]:.4f}  "
                    f"lr {optimizer.lr:.2e}  {time.perf_counter() - t0:.1f}s")
    return history
