"""The always-on DiscoveryService: warm state, requests, mutations.

Every pipeline invocation so far rebuilt the world from scratch — lake
profiling, O(n²) matching, DRG construction and cache warm-up were all
per-run.  :class:`DiscoveryService` turns that batch job into a standing
server, the architecture of fuzzbench's service/scheduler split applied
to feature discovery:

* **warm shared state** — one :class:`~repro.discovery
  .IncrementalMatchIndex` (profiles + pair matches + the current DRG
  snapshot), one long-lived single-flight
  :class:`~repro.engine.HopCache` shared into every run's
  :class:`~repro.engine.JoinEngine`, one content-addressed
  :class:`~repro.core.OutcomeMemo` of streaming-selection and top-k fit
  outcomes (keyed by the bytes a step reads), and a bounded
  :class:`~repro.service.state.ResultStore` of whole
  :class:`~repro.core.DiscoveryResult` / ``AugmentationResult`` objects;
* **requests on the caller's thread** — :meth:`discover` / :meth:`augment`
  run Algorithm 1 on the thread that calls them and return its answer.
  The service starts no thread: callers that want requests in parallel
  call from their own threads (an ``augment`` request's tree-model fits
  may still share a process pool, by the rule of
  :meth:`~repro.core.AutoFeat.train_top_k`);
* **incremental mutation** — :meth:`register_table` /
  :meth:`update_table` / :meth:`drop_table` re-profile and re-match only
  the affected column pairs, replay the stored matches into a fresh DRG
  and publish it as the new snapshot.  A mutation invalidates nothing:
  the hop cache checks each index against the table object it was built
  from, and the result store checks each result against the
  :class:`~repro.service.state.Envelope` it was computed on, both on read.

Concurrency model: a readers-writer lock.  Requests hold the read side
while they resolve their snapshot and run; mutations take the write side
— they wait for in-flight requests to drain, apply the index operation,
publish the new snapshot, and release.  Requests already running keep the
snapshot (an immutable DRG) they started with, so they never observe a
half-applied mutation; requests that take the read side after the
mutation see the new snapshot.  The correctness bar is the determinism
contract of DESIGN.md §11 lifted to service scope: after *any* mutation
sequence, a query answered from warm state is bit-identical to a cold
full rebuild.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..core import AutoFeat, AutoFeatConfig, OutcomeMemo
from ..core.result import AugmentationResult, DiscoveryResult
from ..dataframe import Table
from ..discovery import IncrementalMatchIndex, MutationReport
from ..engine import HopCache
from ..errors import ServiceError
from ..obs import MetricsRegistry, RunManifest, build_manifest, flat_node
from ..obs.manifest import config_snapshot
from .state import LakeSnapshot, ResultStore

__all__ = ["DiscoveryService", "ServiceResponse"]


class _RWLock:
    """Writer-priority readers-writer lock.

    Many requests read concurrently; a mutation writer blocks new
    readers, waits for the in-flight ones to drain, and runs alone.
    Writer priority keeps a stream of requests from starving mutations
    forever.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writing or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


@dataclass(frozen=True)
class ServiceResponse:
    """One answered request: the pipeline result plus service bookkeeping."""

    kind: str
    base_table: str
    label_column: str
    model_name: str | None
    result: DiscoveryResult | AugmentationResult
    cache_hit: bool
    #: True when the run's anytime budget expired and ``result`` is the
    #: best-so-far partial answer rather than the full exploration.
    budget_exhausted: bool
    snapshot_version: int
    #: Time spent waiting for the read side of the service lock, i.e.
    #: behind a mutation (the manifest's ``queue`` node).
    queue_seconds: float
    execute_seconds: float
    #: The per-request service manifest (lock wait, execution, cache
    #: disposition, snapshot version) — distinct from ``result
    #: .run_manifest``, which records the pipeline run that *produced*
    #: the result (possibly on an earlier request, when served warm).
    manifest: RunManifest


def _config_key(config: AutoFeatConfig) -> tuple:
    """Hashable identity of a request config (part of the cache key)."""
    return tuple(sorted(config_snapshot(config).items()))


class DiscoveryService:
    """Long-lived feature-discovery server over a mutable lake.

    Repeated identical queries are served from the warm result store
    while the part of the lake they can observe is unchanged; a request
    that passes ``use_cache=False`` recomputes instead.  A request's
    anytime budget is its config's (``config=replace(service.config,
    max_hops=...)``), and the budget is part of the result-cache key.

    Parameters
    ----------
    tables:
        Initial lake, in canonical order.
    matcher:
        Schema matcher for edge discovery (:class:`~repro.discovery
        .ComaMatcher` by default; any matcher with a lake pass,
        ``match_lake_profiles``, works).  Every table pair is scored
        exactly, so the warm DRG is the one a cold ``from_discovery``
        builds.
    threshold:
        Edge-score threshold, as in ``from_discovery``.
    config:
        Default :class:`AutoFeatConfig` for requests that do not bring
        their own.
    """

    def __init__(
        self,
        tables=(),
        matcher=None,
        threshold: float = 0.55,
        config: AutoFeatConfig | None = None,
    ):
        self.config = config or AutoFeatConfig()
        self.index = IncrementalMatchIndex(tables, matcher=matcher, threshold=threshold)
        self.hop_cache = HopCache()
        self.memo = OutcomeMemo()
        self.registry = MetricsRegistry()
        self._snapshot = LakeSnapshot(version=0, drg=self.index.drg)
        self._rw = _RWLock()
        self._results = ResultStore()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "DiscoveryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Wait for the requests in flight, then refuse new work (idempotent)."""
        with self._rw.write():
            self._closed = True

    # -- snapshot access -----------------------------------------------------

    @property
    def snapshot(self) -> LakeSnapshot:
        """The current immutable lake snapshot."""
        return self._snapshot

    @property
    def drg(self):
        return self._snapshot.drg

    @property
    def version(self) -> int:
        return self._snapshot.version

    # -- requests ------------------------------------------------------------

    def discover(
        self,
        base: str,
        label: str,
        config: AutoFeatConfig | None = None,
        use_cache: bool = True,
    ) -> ServiceResponse:
        """Rank the join paths from ``base`` on the current snapshot."""
        return self._serve("discover", base, label, None, config, use_cache)

    def augment(
        self,
        base: str,
        label: str,
        model_name: str = "lightgbm",
        config: AutoFeatConfig | None = None,
        use_cache: bool = True,
    ) -> ServiceResponse:
        """Discover, then train ``model_name`` on the top-k paths."""
        return self._serve("augment", base, label, model_name, config, use_cache)

    def _serve(self, kind, base, label, model_name, config, use_cache) -> ServiceResponse:
        config = config or self.config
        waiting = time.perf_counter()
        with self._rw.read():
            if self._closed:
                raise ServiceError("service is closed; no further requests")
            self.registry.counter("service.requests_received").inc()
            self._count_in_flight(1)
            try:
                return self._answer(kind, base, label, model_name, config, use_cache, waiting)
            except Exception:
                self.registry.counter("service.requests_failed").inc()
                raise
            finally:
                self._count_in_flight(-1)

    def _count_in_flight(self, delta: int) -> None:
        with self.registry.lock:
            gauge = self.registry.gauge("service.requests_in_flight")
            gauge.set(gauge.value + delta)

    def _answer(self, kind, base, label, model_name, config, use_cache, waiting):
        """One request under the read lock: the stored result or a fresh run;
        ``waiting`` is when the caller began waiting for the lock."""
        started = time.perf_counter()
        queue_seconds = started - waiting
        snapshot = self._snapshot
        key = (kind, base, label, model_name, _config_key(config))
        result = None
        if use_cache:
            envelope = snapshot.envelope(base, config.max_path_length)
            result = self._results.get(key, envelope)
        cache_hit = result is not None
        if not cache_hit:
            autofeat = AutoFeat(
                snapshot.drg, config, hop_cache=self.hop_cache, memo=self.memo
            )
            if kind == "discover":
                result = autofeat.discover(base, label)
            else:
                result = autofeat.augment(base, label, model_name=model_name)
            if use_cache and self._cacheable(config, result):
                self._results.put(key, envelope, result)
        execute_seconds = time.perf_counter() - started
        budget_exhausted = bool(getattr(result, "budget_exhausted", False))
        if budget_exhausted:
            self.registry.counter("service.requests_budget_exhausted").inc()
        self._count_cache(cache_hit)
        memo_gauges = {
            f"service.memo_{namespace}_{name}": value
            for namespace, counters in self.memo.counters().items()
            for name, value in counters.as_dict().items()
        }
        for name, value in memo_gauges.items():
            self.registry.gauge(name).set(value)
        timing = flat_node(
            f"service.{kind}",
            queue_seconds + execute_seconds,
            children=[
                flat_node("queue", queue_seconds),
                flat_node("execute", execute_seconds, cache_hit=cache_hit),
            ],
            traced=False,
        )
        manifest = build_manifest(
            f"service.{kind}",
            config=config,
            dataset=snapshot.drg,
            seed=config.seed,
            wall_seconds=queue_seconds + execute_seconds,
            timing=timing,
            counters={"service.cache_hit": 1 if cache_hit else 0},
            gauges={"service.snapshot_version": snapshot.version, **memo_gauges},
        )
        return ServiceResponse(
            kind=kind,
            base_table=base,
            label_column=label,
            model_name=model_name,
            result=result,
            cache_hit=cache_hit,
            budget_exhausted=budget_exhausted,
            snapshot_version=snapshot.version,
            queue_seconds=queue_seconds,
            execute_seconds=execute_seconds,
            manifest=manifest,
        )

    @staticmethod
    def _cacheable(config: AutoFeatConfig, result) -> bool:
        """Whether a fresh result may enter the warm result cache.

        A ``max_hops``-exhausted result is deterministic — the hop budget
        cuts the canonical exploration order at a fixed point, so a rerun
        reproduces it bit-for-bit and caching is sound.  A wall-clock
        exhausted result depends on machine load at execution time: a
        rerun could explore more (or fewer) hops, so serving the cached
        partial to a later identical request would freeze one machine's
        timing into the answer.  Those stay uncached.
        """
        if not getattr(result, "budget_exhausted", False):
            return True
        return config.budget_seconds is None

    def _count_cache(self, hit: bool) -> None:
        # One critical section: the rate is set from the counts it read.
        with self.registry.lock:
            hits_counter = self.registry.counter("service.result_cache_hits")
            misses_counter = self.registry.counter("service.result_cache_misses")
            (hits_counter if hit else misses_counter).inc()
            hits = hits_counter.value
            total = hits + misses_counter.value
            self.registry.gauge("service.warm_hit_rate").set(
                round(hits / total, 6) if total else 0.0
            )

    # -- mutations -----------------------------------------------------------

    def register_table(self, table: Table) -> MutationReport:
        """Add a table to the lake; re-matches only its n-1 pairs."""
        return self._mutate(lambda: self.index.register_table(table))

    def update_table(self, table: Table) -> MutationReport:
        """Replace a table's contents; re-profiles/re-matches only it."""
        return self._mutate(lambda: self.index.update_table(table))

    def drop_table(self, name: str) -> MutationReport:
        """Remove a table; zero matcher calls."""
        return self._mutate(lambda: self.index.drop_table(name))

    def _mutate(self, operation) -> MutationReport:
        """Apply one index operation under the write lock and publish the
        new snapshot; every cache checks it on read."""
        with self._rw.write():
            if self._closed:
                raise ServiceError("service is closed; no further mutations")
            report = operation()
            self._snapshot = LakeSnapshot(
                version=self.index.version, drg=self.index.drg
            )
            self.registry.counter("service.mutations").inc()
            self.registry.gauge("service.snapshot_version").set(
                self._snapshot.version
            )
        return report

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """One JSON-safe snapshot of the whole service's warm state."""
        hop_counters = self.hop_cache.counters()
        return {
            "snapshot_version": self._snapshot.version,
            "n_tables": self._snapshot.n_tables,
            "n_relationships": self._snapshot.drg.n_relationships,
            "cached_results": len(self._results),
            "hop_cache": hop_counters.as_dict(),
            "hop_cache_entries": len(self.hop_cache),
            "hop_cache_hit_rate": round(hop_counters.cache_hit_rate, 6),
            "memo": {
                namespace: counters.as_dict()
                for namespace, counters in self.memo.counters().items()
            },
            "match_index": self.index.counters.as_dict(),
            "metrics": self.registry.as_dict(),
        }
