from .neighborhoods import (
    EdgeSet,
    NeighborhoodConfig,
    Segments,
    knn_graph,
    nearest_points,
    radius_graph,
)
from .res import res_sample, sampling_probability
