"""Multi-resolution hierarchy construction (VC, VC+QEM, or FPS)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.neighborhoods import EdgeSet, NeighborhoodConfig, knn_graph, radius_graph
from ..mesh.core import Mesh, MeshValidationError, geodesic_edge_set
from .fps import fps_pool
from .qem import qem_pool
from .trace import PoolingTraceMap
from .vertex_clustering import pooled_edge_set, vertex_clustering_pool

# Defaults: cubical clustering cells per level, and the quadric-error
# strategy as a clustering pre-pass followed by 30% reductions.
DEFAULT_VC_CELLS = (0.04, 0.08, 0.16, 0.32)
DEFAULT_QEM_RATIO = 0.3

# Radius defaults scale with the cell schedule; the radii themselves are
# not reported anywhere and must be treated as tunables.
DEFAULT_RADII = (0.05, 0.10, 0.20, 0.40)


@dataclass
class HierarchyConfig:
    strategy: str = "vc"  # "vc" | "vc+qem" | "fps"
    cells: Sequence[float] = DEFAULT_VC_CELLS
    qem_ratio: float = DEFAULT_QEM_RATIO
    qem_levels: int = 3
    qem_pair_distance: Optional[float] = None  # defaults to cells[0]
    fps_counts: Sequence[int] = ()
    fps_seed: int = 0

    def __post_init__(self):
        if self.strategy not in ("vc", "vc+qem", "fps"):
            raise ValueError(f"unknown hierarchy strategy {self.strategy!r}")
        if self.strategy == "fps" and not self.fps_counts:
            raise ValueError("fps strategy requires fps_counts")
        if any(c <= 0 for c in self.fps_counts):
            raise ValueError("fps counts must be positive")
        if any(b >= a for a, b in zip(self.fps_counts, self.fps_counts[1:])):
            raise ValueError("fps counts must decrease from level to level")
        if any(not 0 < c < np.inf for c in self.cells):
            raise ValueError("cell sizes must be positive and finite")
        if not 0 < self.qem_ratio < 1:
            raise ValueError("qem_ratio must lie in (0, 1)")

    @property
    def num_levels(self) -> int:
        if self.strategy == "vc":
            return len(self.cells)
        if self.strategy == "vc+qem":
            return 1 + self.qem_levels
        return len(self.fps_counts)


@dataclass
class Hierarchy:
    """Mesh pyramid plus the trace maps and edge sets linking its levels.

    levels[0] is the finest level the network sees (the first pooling of
    the raw input); input_trace maps raw input vertices onto it. The
    Euclidean edge sets stay None until build_euclidean_edges builds them.
    """

    levels: List[Mesh]
    traces: List[PoolingTraceMap]
    geodesic_edges: List[EdgeSet]
    input_trace: PoolingTraceMap
    euclidean_edges: Optional[List[EdgeSet]] = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def validate(self):
        """Check every trace and edge set against the level vertex counts.

        Messages name the part at fault the way the hierarchy store names
        its members: level_{l}, trace_{l}, trace_input, edges_{l}_geo|euc.
        """
        counts = [m.num_vertices for m in self.levels]
        if len(self.traces) != len(counts) - 1:
            raise ValueError("hierarchy needs exactly one trace per level transition")
        for i in range(len(counts) - 1):
            if counts[i + 1] >= counts[i]:
                raise ValueError(f"level_{i + 1} does not reduce the vertex count")
            _check_trace(f"trace_{i}", self.traces[i], counts[i], counts[i + 1])
        _check_trace("trace_input", self.input_trace, None, counts[0])
        _check_edge_sets("geo", self.geodesic_edges, counts)
        if self.euclidean_edges is not None:
            _check_edge_sets("euc", self.euclidean_edges, counts)

    def build_euclidean_edges(self, configs: Sequence[NeighborhoodConfig]):
        """Build per-level Euclidean edge sets (lazy; overwrites any previous).

        A k-nn level with no more than k vertices raises MeshValidationError.
        """
        if len(configs) != self.num_levels:
            raise ValueError("need one neighborhood config per level")
        edge_sets = []
        for lvl, (mesh, cfg) in enumerate(zip(self.levels, configs)):
            if cfg.kind == "knn":
                if cfg.k >= mesh.num_vertices:
                    raise MeshValidationError(
                        f"level {lvl} has {mesh.num_vertices} vertices, too few for "
                        f"{cfg.k} nearest neighbors each")
                edge_sets.append(knn_graph(mesh.positions, cfg.k))
            else:
                edge_sets.append(radius_graph(mesh.positions, cfg.radius))
        self.euclidean_edges = edge_sets
        return self.euclidean_edges


def _check_trace(name, trace: PoolingTraceMap, fine_count, coarse_count):
    if fine_count is not None and trace.fine_count != fine_count:
        raise ValueError(f"{name}: {trace.fine_count} fine vertices, the level has {fine_count}")
    if trace.coarse_count != coarse_count:
        raise ValueError(
            f"{name}: coarse count {trace.coarse_count}, the level has {coarse_count}")
    try:
        trace.validate()
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from e


def _check_edge_sets(kind, edge_sets: Sequence[EdgeSet], counts):
    if len(edge_sets) != len(counts):
        raise ValueError(f"{len(edge_sets)} {kind} edge sets for {len(counts)} levels")
    for lvl, (edges, n) in enumerate(zip(edge_sets, counts)):
        try:
            if len(edges) != n:
                raise ValueError(f"{len(edges)} rows for {n} vertices")
            edges.validate(n)
        except ValueError as e:
            raise ValueError(f"edges_{lvl}_{kind}: {e}") from e


def build_hierarchy(mesh: Mesh, config: HierarchyConfig) -> Hierarchy:
    """Build the fine-to-coarse pyramid for one mesh.

    The first pooling operation (VC cell 0, QEM pre-pass cell, or the first
    FPS count) produces level 0; its trace from the raw input is kept in
    input_trace. A first FPS count above the mesh's vertex count, or a
    later pooling step that does not reduce the vertex count, raises
    MeshValidationError: the input, not the config, is at fault.
    """
    if config.strategy == "fps" and config.fps_counts[0] > mesh.num_vertices:
        raise MeshValidationError(
            f"first FPS count {config.fps_counts[0]} exceeds the "
            f"{mesh.num_vertices} vertices of the mesh"
        )
    pair_distance = config.qem_pair_distance
    if pair_distance is None:
        pair_distance = config.cells[0]
    levels: List[Mesh] = []
    traces: List[PoolingTraceMap] = []  # the input trace first
    edge_sets: List[EdgeSet] = []
    current = mesh
    # FPS discards surface connectivity entirely.
    current_edges = None if config.strategy == "fps" else geodesic_edge_set(mesh)
    for step in range(config.num_levels):
        if config.strategy == "fps":
            coarse, trace = fps_pool(current, config.fps_counts[step], config.fps_seed)
        elif config.strategy == "vc+qem" and step:
            coarse, trace = qem_pool(current, config.qem_ratio, pair_distance)
        else:
            coarse, trace = vertex_clustering_pool(current, config.cells[step])
        if step and coarse.num_vertices >= current.num_vertices:
            raise MeshValidationError(
                f"pooling level {step} failed to reduce the vertex count "
                f"({current.num_vertices} -> {coarse.num_vertices})"
            )
        if current_edges is None:
            edge_sets.append(EdgeSet.from_pairs([], [], coarse.num_vertices))
        else:
            current_edges = pooled_edge_set(current_edges, trace)
            edge_sets.append(current_edges)
        levels.append(coarse)
        traces.append(trace)
        current = coarse

    hier = Hierarchy(
        levels=levels,
        traces=traces[1:],
        geodesic_edges=edge_sets,
        input_trace=traces[0],
    )
    hier.validate()
    return hier


def merge_hierarchies(
        hiers: Sequence[Hierarchy]) -> Tuple[List[EdgeSet], List[EdgeSet], List[PoolingTraceMap]]:
    """What the network reads of a batch of hierarchies side by side: each
    level's geodesic and Euclidean edge sets and the traces between levels,
    each part offset past the vertices of those before it. No mesh is merged.
    (The benchmark harness wraps this function by its name and module.)
    """
    if not hiers:
        raise ValueError("nothing to merge")
    depth = hiers[0].num_levels
    if any(h.num_levels != depth for h in hiers):
        raise ValueError("hierarchies must have matching depth")
    geo = [EdgeSet.disjoint_union([h.geodesic_edges[lvl] for h in hiers])
           for lvl in range(depth)]
    euc = [EdgeSet.disjoint_union([h.euclidean_edges[lvl] for h in hiers])
           for lvl in range(depth)]
    traces = []
    for lvl in range(depth - 1):
        counts = [h.levels[lvl + 1].num_vertices for h in hiers]
        offsets = np.cumsum([0] + counts[:-1])
        traces.append(PoolingTraceMap(
            np.concatenate([h.traces[lvl].assignment + off for h, off in zip(hiers, offsets)]),
            sum(counts)))
    return geo, euc, traces
