from .neighborhoods import (
    EdgeSet,
    NeighborhoodConfig,
    knn_graph,
    nearest_points,
    radius_graph,
    scatter_sum,
)
from .res import res_sample, sampling_probability
