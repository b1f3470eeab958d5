"""Where the top-k training fits run.

Discovery and every join run in the coordinating process, on the run's
one :class:`~repro.engine.JoinEngine`.  The only work that leaves it is
the independent top-k fit ``evaluate_accuracy(table, label, model,
features, seed)``: on ``processes``,
:meth:`repro.core.AutoFeat.train_top_k` submits each fit to the pool
:func:`fit_pool` returns and collects the accuracies in ranked order.
The pool pays for itself on those fits only (DESIGN.md §11 has the
measured numbers).
"""

from __future__ import annotations

import os

__all__ = ["PARALLEL_BACKENDS", "fit_pool", "resolve_max_workers"]

#: Where the training fits run: ``serial`` inline on the coordinating
#: thread, ``processes`` in a process pool.  Results are identical.
PARALLEL_BACKENDS = ("serial", "processes")


def resolve_max_workers(backend: str) -> int:
    """The worker count a backend uses.

    ``serial`` is always 1; ``processes`` gets one worker per CPU this
    process may run on (its affinity mask, which honours cpusets and
    ``taskset``), not one per CPU of the machine.
    """
    if backend == "serial":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fit_pool(backend: str):
    """A :class:`~concurrent.futures.ProcessPoolExecutor` for ``processes``,
    None for ``serial``; the caller shuts it down."""
    if backend == "serial":
        return None
    # Imported here, not at module level: only the opt-in ``processes``
    # backend needs it, and it drags in ``multiprocessing`` (DESIGN.md §3,
    # the import rule).
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=resolve_max_workers(backend))
