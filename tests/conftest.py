"""Suite-wide fixtures."""

from contextlib import contextmanager

import pytest

from repro.engine import faults, parallel

#: The CPU count each training route runs on.  On one CPU every fit runs
#: inline (``serial``); on two, ``processes`` pools the fits of a tree
#: model when at least two of them miss the memo (a ``knn`` or
#: ``linear_l1`` fit stays inline there too).
ROUTES = {"serial": 1, "processes": 2}


@contextmanager
def cpus(n: int):
    """:func:`repro.engine.resolve_max_workers` reads ``n`` CPUs inside the
    block, on every thread of this process."""
    saved = parallel.resolve_max_workers
    parallel.resolve_max_workers = lambda: n
    try:
        yield
    finally:
        parallel.resolve_max_workers = saved


@contextmanager
def error_budget(n: int):
    """A run records at most ``n`` failures inside the block: the module
    constant :data:`repro.engine.faults.ERROR_BUDGET` reads ``n``."""
    saved = faults.ERROR_BUDGET
    faults.ERROR_BUDGET = n
    try:
        yield
    finally:
        faults.ERROR_BUDGET = saved


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    """Every run under test sees one CPU unless it asks for more.

    The pool rule reads the CPU-affinity mask, so without this whether a
    run pools — and the ``workers`` attributes and gauges its manifest
    records — would follow the host.  A test asks for the pool with
    :func:`cpus` (or a ``processes`` leg of :data:`ROUTES`).
    """
    monkeypatch.setattr(parallel, "resolve_max_workers", lambda: 1)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every fit pool started under the test, in order."""
    started = []
    fit_pool = parallel.fit_pool

    def counted(workers):
        started.append(workers)
        return fit_pool(workers)

    monkeypatch.setattr(parallel, "fit_pool", counted)
    return started
