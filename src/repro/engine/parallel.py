"""Where the top-k training fits run.

Every join runs in the coordinating process, on the run's one
:class:`~repro.engine.JoinEngine`; only a top-k fit
``evaluate_accuracy(table, label, model, features, seed)`` may leave it.
:meth:`repro.core.AutoFeat.train_top_k` pools a tree model's fits when at
least two distinct ones miss the train memo and :func:`reserve_workers`
grants two workers or more; every other fit runs inline (DESIGN.md §11).
"""

from __future__ import annotations

import os
import threading

__all__ = ["fit_pool", "release_workers", "reserve_workers", "resolve_max_workers"]

#: Pool workers reserved by the runs in flight in this process.
_reserved = 0
_reserved_lock = threading.Lock()


def resolve_max_workers() -> int:
    """The CPUs this process may run on: its affinity mask, which honours
    cpusets and ``taskset``, not every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def reserve_workers(wanted: int) -> int:
    """Reserve up to ``wanted`` pool workers of the :func:`resolve_max_workers`
    cap that every run in this process shares; 0 when fewer than two are free
    or the host cannot fork.  Hand the count back to :func:`release_workers`."""
    global _reserved
    with _reserved_lock:
        granted = min(wanted, resolve_max_workers() - _reserved)
        if granted < 2 or not hasattr(os, "fork"):
            return 0
        _reserved += granted
        return granted


def release_workers(count: int) -> None:
    global _reserved
    with _reserved_lock:
        _reserved -= count


def fit_pool(workers: int):
    """A forking :class:`~concurrent.futures.ProcessPoolExecutor` of
    ``workers`` processes; the caller shuts it down."""
    # Imported here, not at module level: only a pooled training run needs
    # them (DESIGN.md §3, the import rule).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
