"""Pooling trace maps, and the label pooling and coarse meshes they drive."""

from __future__ import annotations

import numpy as np

from ..graph.neighborhoods import Segments
from ..mesh.core import UNLABELED, Mesh


class PoolingTraceMap(Segments):
    """Surjective fine-to-coarse vertex assignment between adjacent levels.

    Its segments are the groups of fine vertices of each coarse vertex:
    `mean` pools fine rows, `gather` copies each coarse row back to its
    group, and `sum` and `mean_adjoint` are their adjoints. It is built as
    PoolingTraceMap(assignment, coarse_count).
    """

    @property
    def assignment(self) -> np.ndarray:
        """(fine,) coarse index per fine vertex."""
        return self.index

    @property
    def coarse_count(self) -> int:
        return self.count

    @property
    def fine_count(self) -> int:
        return len(self.index)

    def validate(self):
        # Counts from the assignment, not from the cached `sizes`, so that it
        # checks the array as it is now.
        if self.assignment.size:
            if self.assignment.min() < 0 or self.assignment.max() >= self.coarse_count:
                raise ValueError("trace assignment index out of range")
        counts = np.bincount(self.assignment, minlength=self.coarse_count)
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"trace map not surjective: coarse vertex {missing} has no preimage")


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
        colors=None if mesh.colors is None else trace.mean(mesh.colors),
        normals=None if mesh.normals is None else _pooled_normals(mesh.normals, trace),
        labels=None if mesh.labels is None else pool_labels(mesh.labels, trace),
    )


def _pooled_normals(normals: np.ndarray, trace: PoolingTraceMap) -> np.ndarray:
    mean = trace.mean(normals)
    norms = np.linalg.norm(mean, axis=1)
    ok = norms > 1e-12
    mean[ok] /= norms[ok, None]
    mean[~ok] = (0.0, 0.0, 1.0)
    return mean

