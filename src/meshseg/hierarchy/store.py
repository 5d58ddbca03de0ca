"""On-disk hierarchy layout, format version 3: a directory holding one
uncompressed hierarchy.npz. For each level l the archive holds
level_{l}_positions and _faces (and _colors, _normals, _labels on every level
when level 0 has them), then, below the coarsest level, trace_{l}: the
level l + 1 index of every level l vertex, then trace_input, which maps the
raw input onto level 0, then the CSR arrays edges_{l}_geo_indptr and
_indices of every level and the same edges_{l}_euc_* arrays, and last
format_version, a 0-d integer. A trace's coarse count is the vertex count of
the level it maps onto. The level count is that of the consecutive
level_{l}_positions members, and the archive must hold exactly the members
that count and level 0's arrays call for. Loading runs check_mesh on each
level, then Hierarchy.validate(); any failure is a HierarchyFormatError
naming the member.
"""

from __future__ import annotations

import os
import tokenize
import zipfile
import zlib

import numpy as np

from ..graph.neighborhoods import EdgeSet
from ..mesh.core import Mesh, MeshValidationError, check_mesh
from .build import Hierarchy
from .trace import PoolingTraceMap

FORMAT_VERSION = 3
ARCHIVE = "hierarchy.npz"
# Member suffix -> (dtype kind, ndim) of every level's mesh arrays.
MESH_MEMBERS = {"positions": ("f", 2), "faces": ("iu", 2), "colors": ("f", 2),
                "normals": ("f", 2), "labels": ("iu", 1)}
# What np.load, its zip reader and its .npy header parser raise on a damaged archive.
DAMAGED_ARCHIVE = (zipfile.BadZipFile, EOFError, ValueError, OSError, NotImplementedError,
                   RuntimeError, zlib.error, SyntaxError, tokenize.TokenError)


class HierarchyFormatError(ValueError):
    pass


def _layout(num_levels: int, level0) -> list:
    """Member names, in stored order, of a hierarchy of num_levels levels
    whose level 0 has the mesh arrays named in level0."""
    attrs = [a for a in MESH_MEMBERS if a in ("positions", "faces") or a in level0]
    return ([f"level_{lvl}_{attr}" for lvl in range(num_levels) for attr in attrs]
            + [f"trace_{lvl}" for lvl in range(num_levels - 1)] + ["trace_input"]
            + [f"edges_{lvl}_{kind}_{part}" for kind in ("geo", "euc")
               for lvl in range(num_levels) for part in ("indptr", "indices")]
            + ["format_version"])


def serialize_hierarchy(hier: Hierarchy, directory):
    if hier.euclidean_edges is None:
        raise ValueError("a stored hierarchy needs Euclidean edges")
    values = {"trace_input": hier.input_trace.assignment,
              "format_version": np.int64(FORMAT_VERSION)}
    for lvl, mesh in enumerate(hier.levels):
        values.update((f"level_{lvl}_{attr}", getattr(mesh, attr)) for attr in MESH_MEMBERS)
    values.update((f"trace_{lvl}", t.assignment) for lvl, t in enumerate(hier.traces))
    for kind, edge_sets in (("geo", hier.geodesic_edges), ("euc", hier.euclidean_edges)):
        for lvl, edges in enumerate(edge_sets):
            values[f"edges_{lvl}_{kind}_indptr"] = edges.indptr
            values[f"edges_{lvl}_{kind}_indices"] = edges.indices
    os.makedirs(directory, exist_ok=True)
    # np.savez's layout, with ZipInfo's fixed 1980 timestamp on every member
    # instead of the clock, so that equal hierarchies write equal bytes.
    with zipfile.ZipFile(os.path.join(directory, ARCHIVE), "w") as archive:
        for name in _layout(hier.num_levels, hier.levels[0].vertex_arrays().keys()):
            with archive.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as f:
                np.lib.format.write_array(f, np.asarray(values[name]), allow_pickle=False)


def deserialize_hierarchy(directory) -> Hierarchy:
    path = os.path.join(directory, ARCHIVE)
    try:
        archive = np.load(path, allow_pickle=False)
    except DAMAGED_ARCHIVE as e:  # a missing archive is an OSError too
        raise HierarchyFormatError(f"{path}: cannot read the archive: {e}") from e
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise HierarchyFormatError(f"{path}: not an .npz archive")
    with archive:
        return _read_hierarchy(archive, path)


def _read_hierarchy(archive, path) -> Hierarchy:
    def load(name):
        try:
            return archive[name]
        except DAMAGED_ARCHIVE as e:
            raise HierarchyFormatError(f"{path}: member {name} is damaged: {e}") from e

    def member(name, kind, ndim):
        value = load(name)
        if value.dtype.kind not in kind or value.ndim != ndim or value.shape[1:] not in ((), (3,)):
            raise HierarchyFormatError(f"{path}: member {name} has the wrong dtype or shape: "
                                       f"{value.dtype} {value.shape}")
        return value

    def edge_sets(kind):
        return [EdgeSet.from_csr(member(f"edges_{lvl}_{kind}_indptr", "iu", 1),
                                 member(f"edges_{lvl}_{kind}_indices", "iu", 1))
                for lvl in range(num_levels)]

    names = set(archive.files)
    version = load("format_version").tolist() if "format_version" in names else None
    if type(version) is not int or version != FORMAT_VERSION:  # 3.0 == 3, but is no version
        raise HierarchyFormatError(
            f"{path}: hierarchy format version {version!r} is not supported (this reader "
            f"reads version {FORMAT_VERSION}); rebuild it with `meshseg build-hierarchy`")
    num_levels = 1
    while f"level_{num_levels}_positions" in names:
        num_levels += 1
    layout = _layout(num_levels, {a for a in MESH_MEMBERS if f"level_0_{a}" in names})
    missing = [n for n in layout if n not in names]
    unexpected = [n for n in archive.files if n not in layout]
    if missing or unexpected:
        raise HierarchyFormatError(f"{path}: missing member {missing[0]}" if missing
                                   else f"{path}: unexpected member {unexpected[0]}")

    levels = []
    for lvl in range(num_levels):
        arrays = {attr: member(f"level_{lvl}_{attr}", kind, ndim)
                  for attr, (kind, ndim) in MESH_MEMBERS.items() if f"level_{lvl}_{attr}" in names}
        try:
            levels.append(check_mesh(Mesh(**arrays)))
        except MeshValidationError as e:
            raise HierarchyFormatError(f"{path}: level_{lvl}: {e}") from e
    counts = [m.num_vertices for m in levels]
    traces = [PoolingTraceMap(member(f"trace_{lvl}", "iu", 1), counts[lvl + 1])
              for lvl in range(num_levels - 1)]
    hier = Hierarchy(levels=levels, traces=traces, geodesic_edges=edge_sets("geo"),
                     input_trace=PoolingTraceMap(member("trace_input", "iu", 1), counts[0]),
                     euclidean_edges=edge_sets("euc"))
    try:
        hier.validate()
    except ValueError as e:
        raise HierarchyFormatError(f"{path}: {e}") from e
    return hier
