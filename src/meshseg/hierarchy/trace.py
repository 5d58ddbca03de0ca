"""Pooling trace maps, and the label pooling and coarse meshes they drive."""

from __future__ import annotations

import numpy as np

from ..graph.neighborhoods import Segments
from ..mesh.core import UNLABELED, Mesh, unit_rows


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

    UNLABELED wins only when the whole group is unlabeled. Memory stays
    linear in the vertex count whatever the label values: the labels are
    renumbered 0 .. D-1 in sorted order and the (group, label) pairs
    counted by sorting the keys group * D + label.
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full(trace.coarse_count, UNLABELED, dtype=np.int64)
    labeled = labels != UNLABELED
    if labeled.any():
        values, renumbered = np.unique(labels[labeled], return_inverse=True)
        keys, counts = np.unique(trace.assignment[labeled] * len(values) + renumbered,
                                 return_counts=True)
        groups = keys // len(values)
        # Keys run in (group, label) order; the stable sort by falling count
        # puts each group's majority first, the lowest label among ties.
        best = np.lexsort((-counts, groups))
        first = best[np.r_[True, groups[best[1:]] != groups[best[:-1]]]]
        out[groups[first]] = values[keys[first] % len(values)]
    return out


def pooled_mesh(mesh: Mesh, trace: PoolingTraceMap, positions: np.ndarray,
                faces: np.ndarray) -> Mesh:
    """The mesh pooled through `trace`, with the given positions and faces.

    Colors are group means, normals renormalized group means and labels
    group majorities, each present when the fine mesh has it.
    """
    return Mesh(
        positions=positions,
        faces=faces,
        colors=None if mesh.colors is None else trace.mean(mesh.colors),
        normals=None if mesh.normals is None else unit_rows(trace.mean(mesh.normals), 1e-12),
        labels=None if mesh.labels is None else pool_labels(mesh.labels, trace),
    )

