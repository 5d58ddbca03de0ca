"""On-disk hierarchy layout, format version 2: manifest.json plus an
uncompressed hierarchy.npz. For each level l the archive holds
level_{l}_positions and _faces (and _colors, _normals, _labels on every level
when level 0 has them), the CSR arrays edges_{l}_geo_indptr and _indices (and
edges_{l}_euc_* when Euclidean edges were built) and, below the coarsest
level, trace_{l}: the level l + 1 index of every level l vertex. trace_input
maps the raw input onto level 0. A trace's coarse count is the vertex count
of the level it maps onto. Loading runs check_mesh on each level, then
Hierarchy.validate(); any failure is a HierarchyFormatError naming the member.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
import zlib

import numpy as np

from ..graph.neighborhoods import EdgeSet
from ..mesh.core import Mesh, MeshValidationError, check_mesh
from .build import Hierarchy
from .trace import PoolingTraceMap

FORMAT_VERSION = 2
ARCHIVE = "hierarchy.npz"
# Member suffix -> (dtype kind, ndim) of every level's mesh arrays.
MESH_MEMBERS = {"positions": ("f", 2), "faces": ("iu", 2), "colors": ("f", 2),
                "normals": ("f", 2), "labels": ("iu", 1)}
MANIFEST_TYPES = {"num_levels": int, "vertex_counts": list,
                  "has_euclidean_edges": bool, "has_input_trace": bool}
# What np.load, its zip reader and its .npy header parser raise on a damaged archive.
DAMAGED_ARCHIVE = (zipfile.BadZipFile, EOFError, ValueError, OSError, NotImplementedError,
                   RuntimeError, zlib.error, SyntaxError, tokenize.TokenError)


class HierarchyFormatError(ValueError):
    pass


def serialize_hierarchy(hier: Hierarchy, directory, manifest_extra: dict | None = None):
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

    members = {}
    for lvl, mesh in enumerate(hier.levels):
        members.update((f"level_{lvl}_{attr}", getattr(mesh, attr)) for attr in MESH_MEMBERS
                       if getattr(mesh, attr) is not None)
    members.update((f"trace_{lvl}", t.assignment) for lvl, t in enumerate(hier.traces))
    if hier.input_trace is not None:
        members["trace_input"] = hier.input_trace.assignment
    for kind, edge_sets in (("geo", hier.geodesic_edges), ("euc", hier.euclidean_edges or [])):
        for lvl, edges in enumerate(edge_sets):
            members[f"edges_{lvl}_{kind}_indptr"] = edges.indptr
            members[f"edges_{lvl}_{kind}_indices"] = edges.indices
    # np.savez's layout, with ZipInfo's fixed 1980 timestamp on every member
    # instead of the clock, so that equal hierarchies write equal bytes.
    with zipfile.ZipFile(os.path.join(directory, ARCHIVE), "w") as archive:
        for name, value in members.items():
            with archive.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as f:
                np.lib.format.write_array(f, np.asarray(value), allow_pickle=False)


def deserialize_hierarchy(directory) -> Hierarchy:
    manifest = _read_manifest(directory)
    path = os.path.join(directory, ARCHIVE)
    try:
        archive = np.load(path, allow_pickle=False)
    except DAMAGED_ARCHIVE as e:  # a missing archive is an OSError too
        raise HierarchyFormatError(f"{path}: cannot read the archive: {e}") from e
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise HierarchyFormatError(f"{path}: not an .npz archive")
    with archive:
        return _read_hierarchy(archive, manifest, path)


def _read_manifest(directory) -> dict:
    path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(path):
        raise HierarchyFormatError(f"missing manifest.json in {directory}")
    try:
        with open(path) as f:
            manifest = json.load(f)
    except ValueError as e:  # bad JSON or bad UTF-8
        raise HierarchyFormatError(f"{path}: not valid JSON: {e}") from e
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise HierarchyFormatError(
            f"{path}: hierarchy format version {version!r} is not supported (this reader "
            f"reads version {FORMAT_VERSION}); rebuild it with `meshseg build-hierarchy`")
    for key, kind in MANIFEST_TYPES.items():
        if not isinstance(manifest.get(key), kind):
            raise HierarchyFormatError(f"{path}: {key!r} is missing or not of type {kind.__name__}")
    if manifest["num_levels"] < 1:
        raise HierarchyFormatError(f"{path}: 'num_levels' must be at least 1")
    return manifest


def _read_hierarchy(archive, manifest, path) -> Hierarchy:
    def member(name, kind, ndim):
        try:
            value = archive[name]
        except KeyError:
            raise HierarchyFormatError(f"{path}: missing member {name}") from None
        except DAMAGED_ARCHIVE as e:
            raise HierarchyFormatError(f"{path}: member {name} is damaged: {e}") from e
        if value.dtype.kind not in kind or value.ndim != ndim or value.shape[1:] not in ((), (3,)):
            raise HierarchyFormatError(f"{path}: member {name} has the wrong dtype or shape: "
                                       f"{value.dtype} {value.shape}")
        return value

    def edge_sets(kind):
        return [EdgeSet.from_csr(member(f"edges_{lvl}_{kind}_indptr", "iu", 1),
                                 member(f"edges_{lvl}_{kind}_indices", "iu", 1))
                for lvl in range(num_levels)]

    levels, num_levels = [], manifest["num_levels"]
    for lvl in range(num_levels):
        arrays = {attr: member(f"level_{lvl}_{attr}", kind, ndim)
                  for attr, (kind, ndim) in MESH_MEMBERS.items()
                  if attr in ("positions", "faces") or f"level_0_{attr}" in archive}
        try:
            levels.append(check_mesh(Mesh(**arrays)))
        except MeshValidationError as e:
            raise HierarchyFormatError(f"{path}: level_{lvl}: {e}") from e
    counts = [m.num_vertices for m in levels]
    if counts != manifest["vertex_counts"]:
        raise HierarchyFormatError(
            f"vertex counts {counts} disagree with manifest {manifest['vertex_counts']}")

    traces = [PoolingTraceMap(member(f"trace_{lvl}", "iu", 1), counts[lvl + 1])
              for lvl in range(num_levels - 1)]
    hier = Hierarchy(levels, traces, edge_sets("geo"),
                     edge_sets("euc") if manifest["has_euclidean_edges"] else None,
                     PoolingTraceMap(member("trace_input", "iu", 1), counts[0])
                     if manifest["has_input_trace"] else None)
    try:
        hier.validate()
    except ValueError as e:
        raise HierarchyFormatError(f"{path}: {e}") from e
    return hier
