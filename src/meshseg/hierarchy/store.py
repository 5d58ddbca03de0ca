"""On-disk hierarchy layout.

A hierarchy directory holds manifest.json, level_{l}.ply per mesh level,
trace_{l}.txt (one coarse index per fine vertex, ASCII decimal) and
edges_{l}_{geo|euc}.txt (one directed edge "i j" per line).
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from ..graph.neighborhoods import EdgeSet
from ..mesh.io import load_mesh, save_mesh
from .build import Hierarchy
from .trace import PoolingTraceMap

FORMAT_VERSION = 1


class HierarchyFormatError(ValueError):
    pass


def serialize_hierarchy(hier: Hierarchy, directory, manifest_extra: Optional[dict] = None):
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_levels": hier.num_levels,
        "vertex_counts": [m.num_vertices for m in hier.levels],
        "face_counts": [m.num_faces for m in hier.levels],
        "has_euclidean_edges": hier.euclidean_edges is not None,
        "has_input_trace": hier.input_trace is not None,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    for lvl, mesh in enumerate(hier.levels):
        save_mesh(mesh, os.path.join(directory, f"level_{lvl}.ply"), binary=True)
    for lvl, trace in enumerate(hier.traces):
        _write_trace(os.path.join(directory, f"trace_{lvl}.txt"), trace)
    if hier.input_trace is not None:
        _write_trace(os.path.join(directory, "trace_input.txt"), hier.input_trace)
    for lvl, edges in enumerate(hier.geodesic_edges):
        _write_edges(os.path.join(directory, f"edges_{lvl}_geo.txt"), edges)
    if hier.euclidean_edges is not None:
        for lvl, edges in enumerate(hier.euclidean_edges):
            _write_edges(os.path.join(directory, f"edges_{lvl}_euc.txt"), edges)


def deserialize_hierarchy(directory) -> Hierarchy:
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise HierarchyFormatError(f"missing manifest.json in {directory}")
    with open(manifest_path) as f:
        manifest = json.load(f)
    num_levels = manifest["num_levels"]

    levels = []
    for lvl in range(num_levels):
        path = os.path.join(directory, f"level_{lvl}.ply")
        if not os.path.isfile(path):
            raise HierarchyFormatError(f"missing mesh for level {lvl}: {path}")
        levels.append(load_mesh(path))
    counts = [m.num_vertices for m in levels]
    if counts != manifest["vertex_counts"]:
        raise HierarchyFormatError(
            f"vertex counts {counts} disagree with manifest {manifest['vertex_counts']}"
        )

    traces = []
    for lvl in range(num_levels - 1):
        traces.append(
            _read_trace(os.path.join(directory, f"trace_{lvl}.txt"), counts[lvl + 1])
        )
    input_trace = None
    if manifest.get("has_input_trace"):
        input_trace = _read_trace(os.path.join(directory, "trace_input.txt"), counts[0])

    geo = []
    for lvl in range(num_levels):
        path = os.path.join(directory, f"edges_{lvl}_geo.txt")
        if not os.path.isfile(path):
            raise HierarchyFormatError(f"missing geodesic edges for level {lvl}")
        geo.append(_read_edges(path, counts[lvl]))
    euc = None
    if manifest.get("has_euclidean_edges"):
        euc = [
            _read_edges(os.path.join(directory, f"edges_{lvl}_euc.txt"), counts[lvl])
            for lvl in range(num_levels)
        ]

    hier = Hierarchy(levels, traces, geo, euc, input_trace)
    hier.validate()
    return hier


def _write_trace(path, trace: PoolingTraceMap):
    with open(path, "w") as f:
        f.write(f"# coarse_count {trace.coarse_count}\n")
        for idx in trace.assignment:
            f.write(f"{idx}\n")


def _read_trace(path, coarse_count: int) -> PoolingTraceMap:
    if not os.path.isfile(path):
        raise HierarchyFormatError(f"missing trace file {path}")
    assignment = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                idx = int(line)
            except ValueError:
                raise HierarchyFormatError(f"{path}: line {lineno}: not an integer")
            if not 0 <= idx < coarse_count:
                raise HierarchyFormatError(
                    f"{path}: line {lineno}: coarse index {idx} out of range "
                    f"(coarse_count {coarse_count})"
                )
            assignment.append(idx)
    return PoolingTraceMap(np.asarray(assignment, dtype=np.int64), coarse_count)


def _write_edges(path, edges: EdgeSet):
    np.savetxt(path, np.stack(edges.flatten(), axis=1), fmt="%d")


def _read_edges(path, num_vertices: int) -> EdgeSet:
    if not os.path.isfile(path):
        raise HierarchyFormatError(f"missing edges file {path}")
    centers, nbrs = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise HierarchyFormatError(f"{path}: line {lineno}: expected 'i j'")
            i, j = int(parts[0]), int(parts[1])
            if not (0 <= i < num_vertices and 0 <= j < num_vertices):
                raise HierarchyFormatError(
                    f"{path}: line {lineno}: edge index out of range"
                )
            centers.append(i)
            nbrs.append(j)
    return EdgeSet.from_pairs(centers, nbrs, num_vertices)
