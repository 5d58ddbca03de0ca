"""Pooling trace maps and the feature pooling/unpooling they drive."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.neighborhoods import scatter_sum
from ..mesh.core import UNLABELED, Mesh


@dataclass
class PoolingTraceMap:
    """Surjective fine-to-coarse vertex assignment between adjacent levels."""

    assignment: np.ndarray  # (fine,) coarse index per fine vertex
    coarse_count: int

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64).reshape(-1)
        self.coarse_count = int(self.coarse_count)

    @property
    def fine_count(self) -> int:
        return self.assignment.shape[0]

    def validate(self):
        if self.assignment.size:
            if self.assignment.min() < 0 or self.assignment.max() >= self.coarse_count:
                raise ValueError("trace assignment index out of range")
        counts = np.bincount(self.assignment, minlength=self.coarse_count)
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"trace map not surjective: coarse vertex {missing} has no preimage")

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.coarse_count)


def pool_features(features: np.ndarray, trace: PoolingTraceMap) -> np.ndarray:
    """Mean of the fine feature rows over each trace group."""
    features = np.asarray(features)
    if features.shape[0] != trace.fine_count:
        raise ValueError(
            f"feature rows ({features.shape[0]}) != trace fine size ({trace.fine_count})"
        )
    c = trace.coarse_count
    out = scatter_sum(features, trace.assignment, c)
    out /= trace.group_sizes().reshape((c,) + (1,) * (features.ndim - 1))
    return out


def unpool_features(coarse: np.ndarray, trace: PoolingTraceMap) -> np.ndarray:
    """Copy each coarse row back to all of its fine vertices."""
    coarse = np.asarray(coarse)
    if coarse.shape[0] != trace.coarse_count:
        raise ValueError(
            f"coarse rows ({coarse.shape[0]}) != trace coarse count ({trace.coarse_count})"
        )
    return coarse[trace.assignment]


def pool_labels(labels: np.ndarray, trace: PoolingTraceMap) -> np.ndarray:
    """Majority label per group; ties -> lowest class index.

    UNLABELED wins only when the whole group is unlabeled.
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full(trace.coarse_count, UNLABELED, dtype=np.int64)
    labeled = labels != UNLABELED
    if labeled.any():
        shifted = labels[labeled]
        groups = trace.assignment[labeled]
        num_classes = int(shifted.max()) + 1
        counts = np.bincount(groups * num_classes + shifted,
                             minlength=trace.coarse_count * num_classes
                             ).reshape(trace.coarse_count, num_classes)
        has_any = counts.sum(axis=1) > 0
        # argmax takes the first maximum, i.e. the lowest class index on ties.
        out[has_any] = np.argmax(counts[has_any], axis=1)
    return out


def pooled_mesh(mesh: Mesh, trace: PoolingTraceMap, positions: np.ndarray,
                faces: np.ndarray) -> Mesh:
    """The coarse mesh of one pooling step, with the given positions and faces.

    Colors are group means, normals renormalized group means and labels
    group majorities, each present when the fine mesh has it.
    """
    return Mesh(
        positions=positions,
        faces=faces,
        colors=None if mesh.colors is None else pool_features(mesh.colors, trace),
        normals=None if mesh.normals is None else _pooled_normals(mesh.normals, trace),
        labels=None if mesh.labels is None else pool_labels(mesh.labels, trace),
    )


def _pooled_normals(normals: np.ndarray, trace: PoolingTraceMap) -> np.ndarray:
    mean = pool_features(normals, trace)
    norms = np.linalg.norm(mean, axis=1)
    ok = norms > 1e-12
    mean[ok] /= norms[ok, None]
    mean[~ok] = (0.0, 0.0, 1.0)
    return mean

