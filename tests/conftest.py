"""Suite-wide fixtures."""

import pytest

from repro.engine import parallel


def two_workers(backend: str) -> int:
    """:func:`repro.engine.resolve_max_workers` pinned to two pool workers."""
    return 1 if backend == "serial" else 2


@pytest.fixture(autouse=True)
def two_pool_workers(monkeypatch):
    """Every ``processes`` pool under test has two workers.

    The pool sizes itself from the CPU-affinity mask, so without this the
    worker count — and the ``workers`` attributes and gauges the manifests
    record — would follow the host, and a many-core host would fork one
    worker per core for every pool the suite starts.
    """
    monkeypatch.setattr(parallel, "resolve_max_workers", two_workers)
