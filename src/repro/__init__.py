"""AutoFeat reproduction: transitive feature discovery over join paths.

A full-stack reproduction of *AutoFeat: Transitive Feature Discovery over
Join Paths* (ICDE 2024), including every substrate it stands on: an
in-memory columnar table engine, a COMA-style schema-matching discovery
layer, the Dataset Relation Graph, information-theoretic feature
selection, a from-scratch tree/boosting ML stack, and the ARDA / MAB /
JoinAll baselines the paper compares against.

Quickstart::

    from repro import AutoFeat, AutoFeatConfig, DatasetRelationGraph
    from repro.discovery import ComaMatcher

    drg = DatasetRelationGraph.from_discovery(tables, ComaMatcher())
    result = AutoFeat(drg).augment("base_table", "label")
    print(result.summary())
"""

from .core import (
    AugmentationResult,
    AutoFeat,
    AutoFeatConfig,
    DiscoveryResult,
    RankedPath,
    TrainedPath,
)
from .dataframe import Column, DType, JoinIndex, Table
from .engine import (
    ExecutionStats,
    FailureRecord,
    FailureReport,
    FaultManager,
    HopCache,
    JoinEngine,
)
from .errors import (
    ConfigError,
    DatasetError,
    DiscoveryError,
    ErrorBudgetExceeded,
    FaultError,
    GraphError,
    JoinError,
    ModelError,
    ReproError,
    SchemaError,
    SelectionError,
    ServiceError,
)
from .graph import DatasetRelationGraph, JoinPath, KFKConstraint
from .obs import MetricsRegistry, RunManifest, Span, Tracer
from .service import DiscoveryService, ServiceResponse

__version__ = "1.0.0"

__all__ = [
    "AutoFeat",
    "AutoFeatConfig",
    "DiscoveryResult",
    "RankedPath",
    "TrainedPath",
    "AugmentationResult",
    "Table",
    "Column",
    "DType",
    "JoinIndex",
    "JoinEngine",
    "HopCache",
    "ExecutionStats",
    "FailureRecord",
    "FailureReport",
    "FaultManager",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "RunManifest",
    "DatasetRelationGraph",
    "KFKConstraint",
    "JoinPath",
    "DiscoveryService",
    "ServiceResponse",
    "ReproError",
    "SchemaError",
    "JoinError",
    "FaultError",
    "ErrorBudgetExceeded",
    "GraphError",
    "SelectionError",
    "ModelError",
    "DiscoveryError",
    "ConfigError",
    "DatasetError",
    "ServiceError",
    "__version__",
]
