"""Dataset Relation Graph: multigraph storage and join-path enumeration."""

from .drg import DatasetRelationGraph, KFKConstraint
from .multigraph import Edge, MultiGraph, OrientedEdge
from .paths import (
    JoinPath,
    bfs_levels,
    enumerate_paths,
    iter_paths_bfs,
    join_all_path_count,
)

__all__ = [
    "MultiGraph",
    "Edge",
    "OrientedEdge",
    "DatasetRelationGraph",
    "KFKConstraint",
    "JoinPath",
    "enumerate_paths",
    "iter_paths_bfs",
    "bfs_levels",
    "join_all_path_count",
]
