"""Shared join-execution engine (plan/execute split with hop caching).

The engine layer sits between the columnar substrate
(:mod:`repro.dataframe`) and the algorithm layer (:mod:`repro.core`,
:mod:`repro.baselines`): it turns DRG edges into build/probe join kernels,
memoizes build-side state across join paths with a :class:`HopCache`,
skips and records failing hops up to a run-level error budget
(:mod:`repro.engine.faults`), and exposes execution counters so callers
can observe exactly how much join work a run performed.
"""

from .engine import JoinEngine
from .faults import ERROR_BUDGET, FailureRecord, FailureReport, FaultManager
from .hop_cache import HopCache
from .naming import qualified, source_column_name
from .parallel import fit_pool, resolve_max_workers
from .stats import ExecutionStats

__all__ = [
    "JoinEngine",
    "HopCache",
    "ExecutionStats",
    "qualified",
    "source_column_name",
    "ERROR_BUDGET",
    "FailureRecord",
    "FailureReport",
    "FaultManager",
    "fit_pool",
    "resolve_max_workers",
]
