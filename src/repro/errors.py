"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of the library with a single except clause
while still being able to discriminate on the specific failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A table or column was used in a way that violates its schema.

    Raised for unknown column names, duplicate column names, mismatched
    column lengths, and incompatible dtypes.
    """


class JoinError(ReproError):
    """A join could not be performed (missing join columns, empty result)."""


class FaultError(ReproError):
    """Base class for failures managed by the fault-isolation layer.

    Deliberately *not* a :class:`JoinError` subclass: an ordinary join
    infeasibility is expected pruning input for Algorithm 1, while a
    :class:`FaultError` signals that a hop misbehaved (a fault raised by
    the engine's ``hop_hook``, the run-level error budget exhausted) and
    must flow to the run's :class:`repro.engine.FaultManager` instead of
    the pruning rules.
    """


class ErrorBudgetExceeded(FaultError):
    """A run recorded more failures than its error budget tolerates.

    Raised by :class:`repro.engine.FaultManager` once more failures are
    recorded than :data:`repro.engine.faults.ERROR_BUDGET` — graceful
    degradation is bounded, not unconditional.
    """


class RunBudgetExceeded(ReproError):
    """A run-level anytime budget (wall-clock deadline) expired mid-hop.

    Deliberately *not* a :class:`FaultError`: budget expiry is the normal
    termination signal of anytime navigation (see
    :mod:`repro.core.navigation`), not a failure.  The navigator catches
    it, stops the traversal gracefully and returns the best-k-so-far with
    ``budget_exhausted`` set — it must never reach the
    :class:`repro.engine.FaultManager` and be recorded as a degradation.
    """


class GraphError(ReproError):
    """The dataset relation graph was queried or mutated inconsistently."""


class SelectionError(ReproError):
    """Feature selection was invoked with invalid inputs.

    Examples: an unknown metric name, an empty feature matrix, or a label
    vector whose length disagrees with the features.
    """


class ModelError(ReproError):
    """An ML model was used before fitting or fit on degenerate data."""


class DiscoveryError(ReproError):
    """Dataset discovery (schema matching) failed or was misconfigured."""


class ConfigError(ReproError):
    """An AutoFeat configuration value is out of its legal domain."""


class DatasetError(ReproError):
    """A synthetic dataset/lake generator was given invalid parameters."""


class ServiceError(ReproError):
    """The always-on discovery service was misused or is shut down."""
