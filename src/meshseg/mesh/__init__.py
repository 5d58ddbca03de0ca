from .core import (
    Mesh,
    MeshValidationError,
    UNLABELED,
    check_mesh,
    compute_vertex_normals,
    geodesic_edge_set,
    validate_mesh,
)
from .io import MeshParseError, load_mesh, save_mesh
from .subdivide import interpolate_from_point_cloud, midpoint_subdivide
