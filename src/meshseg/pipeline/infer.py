"""Inference over full scenes with overlapping-crop majority voting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph.neighborhoods import NeighborhoodConfig
from ..hierarchy.build import HierarchyConfig
from ..hierarchy.trace import PoolingTraceMap, pool_labels
from ..mesh.core import Mesh
from ..nn.network import SegmentationNetwork
from ..parallel import map_in_order
from .crops import CropConfig, crop_windows, submesh
from .train import Sample, network_inputs, prepare_sample


@dataclass
class InferenceResult:
    predictions: np.ndarray       # per input vertex class index
    votes: np.ndarray             # (V, C) vote counts across crops
    num_crops: int


def predict_hierarchy(net: SegmentationNetwork, sample: Sample, res_threshold: int = 25,
                      seed: int = 0) -> np.ndarray:
    """Class predictions for the raw vertices behind a prepared crop."""
    hier = sample.hierarchy
    logits = net.forward(sample.features,
                         *network_inputs(net, hier.geodesic_edges, hier.euclidean_edges,
                                         hier.traces, res_threshold, seed),
                         train=False)
    return np.argmax(logits, axis=1)[hier.input_trace.assignment]


def infer_scene(net: SegmentationNetwork, scene: Mesh,
                hier_config: HierarchyConfig,
                neigh_configs: Sequence[NeighborhoodConfig],
                crop_config: CropConfig = CropConfig(),
                res_threshold: int = 25,
                seed: int = 0,
                processes: int = 1) -> InferenceResult:
    """Sweep crops over the scene and majority-vote per vertex.

    No crop is rejected at inference time. Vertices that land in several
    overlapping crops get one vote per crop; ties go to the lowest class.
    Crop w draws its RES edges with seed + w.

    With processes=2, two usable CPUs and more than one crop, a fork-started
    worker runs beside this process, and each predicts the next crop that
    neither has taken, both with BLAS pinned to one thread
    (`meshseg.parallel.map_in_order`); the votes are then added here in
    window order, and equal those of processes=1 at one BLAS thread. With
    processes=1, one crop, or a BLAS that cannot be pinned, every crop runs
    here at the current BLAS count.
    """
    windows = crop_windows(scene, crop_config)

    def predict_crop(w):
        sample = prepare_sample(submesh(scene, windows[w]), hier_config, neigh_configs)
        return predict_hierarchy(net, sample, res_threshold, seed + w)

    votes = np.zeros((scene.num_vertices, net.config.num_classes), dtype=np.int64)
    for idx, pred in zip(windows, map_in_order(predict_crop, len(windows), processes)):
        votes[idx, pred] += 1  # idx holds each vertex once
    return InferenceResult(
        predictions=majority_vote(votes),
        votes=votes,
        num_crops=len(windows),
    )


def majority_vote(votes: np.ndarray) -> np.ndarray:
    """Argmax over vote counts; np.argmax ties resolve to the lowest class."""
    votes = np.asarray(votes)
    if votes.ndim != 2:
        raise ValueError("votes must be (num_vertices, num_classes)")
    if (votes.sum(axis=1) == 0).any():
        raise ValueError("some vertices received no votes")
    return np.argmax(votes, axis=1)


def vote_over_runs(predictions: Sequence[np.ndarray]) -> np.ndarray:
    """Majority vote across repeated prediction runs of the same scene; ties
    go to the lowest class. Each vertex pools its runs' predictions, so memory
    stays linear in the vertex count whatever the class ids."""
    runs, num_vertices = len(predictions), len(predictions[0])
    return pool_labels(np.concatenate(predictions),
                       PoolingTraceMap(np.tile(np.arange(num_vertices), runs), num_vertices))
