from .build import (
    DEFAULT_QEM_RATIO,
    DEFAULT_RADII,
    DEFAULT_VC_CELLS,
    Hierarchy,
    HierarchyConfig,
    build_hierarchy,
    merge_hierarchies,
)
from .fps import farthest_point_indices, fps_pool
from .qem import optimal_contractions, qem_pool, vertex_quadrics
from .store import HierarchyFormatError, deserialize_hierarchy, serialize_hierarchy
from .trace import PoolingTraceMap, pool_labels
from .vertex_clustering import grid_cell_indices, pooled_edge_set, vertex_clustering_pool
