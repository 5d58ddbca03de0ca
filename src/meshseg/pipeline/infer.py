"""Inference over full scenes with overlapping-crop majority voting."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph.neighborhoods import NeighborhoodConfig
from ..hierarchy.build import Hierarchy, HierarchyConfig, build_hierarchy
from ..mesh.core import Mesh
from ..nn.network import SegmentationNetwork
from .crops import CropConfig, crop_windows, submesh
from .features import vertex_features
from .train import network_inputs


@dataclass
class InferenceResult:
    predictions: np.ndarray       # per input vertex class index
    votes: np.ndarray             # (V, C) vote counts across crops
    elapsed_seconds: float
    num_crops: int


def predict_hierarchy(net: SegmentationNetwork, hier: Hierarchy,
                      features: np.ndarray, res_threshold: int = 25,
                      seed: int = 0) -> np.ndarray:
    """Class predictions for the raw vertices behind a prepared hierarchy."""
    logits = net.forward(features, *network_inputs(net, hier, res_threshold, seed),
                         train=False)
    return np.argmax(logits, axis=1)[hier.input_trace.assignment]


def infer_scene(net: SegmentationNetwork, scene: Mesh,
                hier_config: HierarchyConfig,
                neigh_configs: Sequence[NeighborhoodConfig],
                crop_config: CropConfig = CropConfig(),
                res_threshold: int = 25,
                seed: int = 0) -> InferenceResult:
    """Sweep crops over the scene and majority-vote per vertex.

    No crop is rejected at inference time. Vertices that land in several
    overlapping crops get one vote per crop; ties go to the lowest class.
    """
    t0 = time.perf_counter()
    num_classes = net.config.num_classes
    votes = np.zeros((scene.num_vertices, num_classes), dtype=np.int64)
    windows = crop_windows(scene, crop_config)
    for w, idx in enumerate(windows):
        hier = build_hierarchy(submesh(scene, idx), hier_config)
        hier.build_euclidean_edges(neigh_configs)
        pred = predict_hierarchy(net, hier, vertex_features(hier.levels[0]),
                                 res_threshold, seed + w)
        votes[idx, pred] += 1  # idx holds each vertex once
    return InferenceResult(
        predictions=majority_vote(votes),
        votes=votes,
        elapsed_seconds=time.perf_counter() - t0,
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
    """Majority vote across repeated prediction runs of the same scene."""
    preds = np.stack([np.asarray(p) for p in predictions])
    votes = np.zeros((preds.shape[1], preds.max() + 1), dtype=np.int64)
    for p in preds:
        votes[np.arange(len(p)), p] += 1
    return majority_vote(votes)
