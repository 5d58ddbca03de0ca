"""Triangle mesh container and basic derived quantities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.neighborhoods import EdgeSet, Segments

# Sentinel label for vertices without ground-truth annotation.
UNLABELED = -1

# Largest accepted coordinate magnitude, in meters. Far beyond any scene, and
# far enough below the float64 range that squared distances, quadric errors
# and grid cell indices cannot overflow.
MAX_COORDINATE = 1e9


class MeshValidationError(ValueError):
    """Raised when a mesh violates a structural invariant."""


# Every per-vertex array a mesh can carry: name -> (dtype, shape of one row).
# Only positions is required.
VERTEX_ARRAYS = {
    "positions": (np.float64, (3,)),
    "colors": (np.float64, (3,)),
    "normals": (np.float64, (3,)),
    "labels": (np.int64, ()),
}


@dataclass
class Mesh:
    """Triangle mesh with optional per-vertex attributes.

    positions : (V, 3) float array, meters
    faces     : (F, 3) int array of vertex indices
    colors    : optional (V, 3) float array, RGB in [0, 1]
    normals   : optional (V, 3) float array, unit length
    labels    : optional (V,) int array, class index or UNLABELED

    A mesh without faces is a point cloud.
    """

    positions: np.ndarray
    faces: np.ndarray
    colors: Optional[np.ndarray] = None
    normals: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        for name, (dtype, row) in VERTEX_ARRAYS.items():
            values = getattr(self, name)
            if values is not None:
                setattr(self, name, np.asarray(values, dtype=dtype).reshape(-1, *row))

    @property
    def num_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    def vertex_arrays(self) -> dict:
        """Name -> array of each per-vertex array the mesh has, in VERTEX_ARRAYS order."""
        return {name: getattr(self, name) for name in VERTEX_ARRAYS
                if getattr(self, name) is not None}

    def copy(self) -> "Mesh":
        return Mesh(faces=self.faces.copy(),
                    **{name: values.copy() for name, values in self.vertex_arrays().items()})


def validate_mesh(mesh: Mesh) -> list:
    """Return a list of human-readable invariant violations (empty if valid).

    Each kind of violation is reported once, with its first vertex or face
    and, when there are more, their number.
    """
    violations = []

    def report(bad, what, where):
        bad = np.flatnonzero(bad)
        if bad.size:
            more = f", first of {bad.size}" if bad.size > 1 else ""
            violations.append(f"{what} at {where} {bad[0]}{more}")

    v = mesh.num_vertices
    if v == 0:
        violations.append("mesh has no vertices")

    # Each check runs elementwise over the whole array and builds its row
    # mask only when it fails: a reduction along the rows' three entries is
    # several times slower on C-ordered arrays than on Fortran-ordered ones.
    finite = np.isfinite(mesh.positions)
    finite_rows = True
    if not finite.all():
        finite_rows = finite.all(axis=1)
        report(~finite_rows, "non-finite coordinate", "vertex")
    beyond = np.abs(mesh.positions) > MAX_COORDINATE
    if beyond.any():
        report(finite_rows & beyond.any(axis=1), f"coordinate beyond {MAX_COORDINATE:g} m",
               "vertex")

    if mesh.faces.size:
        if mesh.faces.min() < 0 or mesh.faces.max() >= v:
            report(((mesh.faces < 0) | (mesh.faces >= v)).any(axis=1),
                   "face index out of range", "face")
        a, b, c = mesh.faces[:, 0], mesh.faces[:, 1], mesh.faces[:, 2]
        report((a == b) | (b == c) | (a == c), "degenerate face (repeated vertex index)", "face")

    # Row checks run on each array whose count matches.
    arrays = {}
    for name, values in mesh.vertex_arrays().items():
        if len(values) == v:
            arrays[name] = values
        else:
            violations.append(f"{name[:-1]} count does not match vertex count")
    if "colors" in arrays:
        colors = arrays["colors"]
        bad = ~np.isfinite(colors) | (colors < 0.0) | (colors > 1.0)
        if bad.any():
            report(bad.any(axis=1), "color outside [0, 1]", "vertex")
    if "normals" in arrays:
        # The squares added column by column, in the same order for either
        # memory layout.
        squares = arrays["normals"] ** 2
        norms = np.sqrt(squares[:, 0] + squares[:, 1] + squares[:, 2])
        report(~np.isfinite(norms) | (np.abs(norms - 1.0) > 1e-6), "non-unit normal", "vertex")
    if "labels" in arrays:
        report(arrays["labels"] < UNLABELED, f"label below {UNLABELED}", "vertex")

    return violations


def check_mesh(mesh: Mesh) -> Mesh:
    """Validate and return the mesh, raising on the first violation."""
    violations = validate_mesh(mesh)
    if violations:
        raise MeshValidationError("; ".join(violations))
    return mesh


def geodesic_edge_set(mesh: Mesh):
    """Undirected 1-hop adjacency induced by the faces.

    Returns an EdgeSet whose neighbor lists are symmetric, deduplicated and
    free of self-loops. Isolated vertices get empty lists.
    """
    a = mesh.faces.ravel()
    b = np.roll(mesh.faces, -1, axis=1).ravel()  # (f0, f1), (f1, f2), (f2, f0)
    keep = a != b
    return EdgeSet.symmetric(a[keep], b[keep], mesh.num_vertices)


def face_normals_and_areas(mesh: Mesh):
    """Per-face unit normals and areas (zero normal for degenerate faces)."""
    p = mesh.positions
    f = mesh.faces
    cross = np.cross(p[f[:, 1]] - p[f[:, 0]], p[f[:, 2]] - p[f[:, 0]])
    double_area = np.linalg.norm(cross, axis=1)
    normals = np.zeros_like(cross)
    ok = double_area > 0
    normals[ok] = cross[ok] / double_area[ok, None]
    return normals, 0.5 * double_area


def compute_vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted average of incident face normals, (0, 0, 1) fallback."""
    v = mesh.num_vertices
    accum = np.zeros((v, 3))
    if mesh.faces.size:
        fn, fa = face_normals_and_areas(mesh)
        # Corner 0 of every face, then corner 1, then corner 2.
        accum = Segments(mesh.faces.T.ravel(), v).sum(np.tile(fn * fa[:, None], (3, 1)))
    return unit_rows(accum, 1e-20)


def unit_rows(v: np.ndarray, tiny: float) -> np.ndarray:
    """Each row of the (n, 3) array v divided by its length; (0, 0, 1) for
    a row no longer than `tiny`."""
    norms = np.linalg.norm(v, axis=1)
    ok = norms > tiny
    out = np.tile((0.0, 0.0, 1.0), (len(v), 1))
    out[ok] = v[ok] / norms[ok, None]
    return out


def surface_area(mesh: Mesh) -> float:
    _, areas = face_normals_and_areas(mesh)
    return float(areas.sum())
