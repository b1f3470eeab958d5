"""The always-on DiscoveryService: warm state, a request queue, mutations.

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
  outcomes (keyed by the bytes a step reads, so mutations never touch
  it), and a
  result cache of whole :class:`~repro.core.DiscoveryResult` /
  ``AugmentationResult`` objects;
* **a request queue** — :meth:`submit` enqueues ``discover``/``augment``
  requests which ``n_workers`` threads drain concurrently, each run
  multiplexed onto the existing engine/executor machinery
  (``config.parallel_backend`` still applies *within* a request);
* **incremental mutation** — :meth:`register_table` /
  :meth:`update_table` / :meth:`drop_table` re-profile and re-match only
  the affected column pairs, rebuild the DRG snapshot through
  :meth:`~repro.graph.DatasetRelationGraph.apply_delta`, and surgically
  invalidate only the dependent hop-cache entries and cached results.

Concurrency model: a readers-writer lock.  Requests hold the read side
while they resolve their snapshot and run; mutations take the write side
— they wait for in-flight requests to drain, apply the delta, invalidate,
publish the new snapshot, and release.  Requests already running keep the
snapshot (an immutable DRG) they started with, so they never observe a
half-applied mutation; requests dequeued after the mutation see the new
snapshot.  The correctness bar is the determinism contract of DESIGN.md
§11 lifted to service scope: after *any* mutation sequence, a query
answered from warm state is bit-identical to a cold full rebuild.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from ..core import AutoFeat, AutoFeatConfig, OutcomeMemo
from ..core.result import AugmentationResult, DiscoveryResult
from ..dataframe import Table
from ..discovery import IncrementalMatchIndex, MutationReport
from ..engine import HopCache
from ..errors import ServiceError
from ..obs import MetricsRegistry, RunManifest, build_manifest, flat_node
from ..obs.manifest import config_snapshot
from .state import CachedEntry, LakeSnapshot, reachable_within

__all__ = ["DiscoveryService", "RequestFuture", "ServiceResponse"]

REQUEST_KINDS = ("discover", "augment")

_SHUTDOWN = object()


class _RWLock:
    """Writer-priority readers-writer lock.

    Many request workers read concurrently; a mutation writer blocks new
    readers, waits for the in-flight ones to drain, and runs alone.
    Writer priority keeps a busy queue from starving mutations forever.
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
    queue_seconds: float
    execute_seconds: float
    #: The per-request service manifest (queue wait, execution, cache
    #: disposition, snapshot version) — distinct from ``result
    #: .run_manifest``, which records the pipeline run that *produced*
    #: the result (possibly on an earlier request, when served warm).
    manifest: RunManifest


class RequestFuture:
    """Handle on one queued request; resolves to a :class:`ServiceResponse`."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._response: ServiceResponse | None = None
        self._exception: BaseException | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ServiceResponse:
        if not self._done.wait(timeout):
            raise ServiceError("request did not complete within the timeout")
        if self._exception is not None:
            raise self._exception
        assert self._response is not None
        return self._response

    def _resolve(self, response: ServiceResponse) -> None:
        self._response = response
        self._done.set()

    def _fail(self, exc: BaseException) -> None:
        self._exception = exc
        self._done.set()


@dataclass
class _Request:
    kind: str
    base: str
    label: str
    model_name: str | None
    config: AutoFeatConfig
    use_cache: bool
    future: RequestFuture
    submitted_at: float = field(default_factory=time.perf_counter)


def _config_key(config: AutoFeatConfig) -> tuple:
    """Hashable identity of a request config (part of the cache key)."""
    return tuple(sorted(config_snapshot(config).items()))


class DiscoveryService:
    """Long-lived feature-discovery server over a mutable lake.

    Repeated identical queries are served from the warm result cache
    (invalidated surgically on mutation); a request that passes
    ``use_cache=False`` recomputes instead.

    Parameters
    ----------
    tables:
        Initial lake, in canonical order.
    matcher:
        Schema matcher for edge discovery (:class:`~repro.discovery
        .ComaMatcher` by default; any ``Matcher`` works, profile-aware
        ones incrementally).  Every table pair is scored exactly, so the
        warm DRG is the one a cold ``from_discovery`` builds.
    threshold:
        Edge-score threshold, as in ``from_discovery``.
    config:
        Default :class:`AutoFeatConfig` for requests that do not bring
        their own.
    n_workers:
        Request-queue worker threads (concurrent requests in flight).
    """

    def __init__(
        self,
        tables=(),
        matcher=None,
        threshold: float = 0.55,
        config: AutoFeatConfig | None = None,
        n_workers: int = 2,
    ):
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self.config = config or AutoFeatConfig()
        self.index = IncrementalMatchIndex(tables, matcher=matcher, threshold=threshold)
        self.hop_cache = HopCache()
        self.memo = OutcomeMemo()
        self.registry = MetricsRegistry()
        self._snapshot = LakeSnapshot(version=0, drg=self.index.drg)
        self._rw = _RWLock()
        self._results: dict[tuple, CachedEntry] = {}
        self._results_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._in_flight = 0
        self._state_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"discovery-svc-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "DiscoveryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drain the queue and stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        for worker in self._workers:
            worker.join()

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

    def submit(
        self,
        kind: str,
        base: str,
        label: str,
        model_name: str | None = None,
        config: AutoFeatConfig | None = None,
        use_cache: bool = True,
        budget_seconds: float | None = None,
        max_hops: int | None = None,
    ) -> RequestFuture:
        """Enqueue one request; returns immediately with a future.

        ``budget_seconds`` / ``max_hops`` override the config's anytime
        budget for this request only (see DESIGN.md §14).  The wall-clock
        deadline starts ticking when a worker *begins executing* the run,
        not at submit time, so queue wait never eats the budget.  Budget
        overrides are part of the result-cache key (they live on the
        request config), so a tight-budget partial answer is never served
        to a later unbudgeted request.
        """
        if self._closed:
            raise ServiceError("service is closed; no further requests")
        if kind not in REQUEST_KINDS:
            raise ServiceError(
                f"unknown request kind {kind!r}; expected one of {REQUEST_KINDS}"
            )
        resolved = config or self.config
        if budget_seconds is not None or max_hops is not None:
            overrides = {}
            if budget_seconds is not None:
                overrides["budget_seconds"] = budget_seconds
            if max_hops is not None:
                overrides["max_hops"] = max_hops
            # replace() re-runs AutoFeatConfig.__post_init__, so invalid
            # budgets are rejected here, before the request is queued.
            resolved = replace(resolved, **overrides)
        request = _Request(
            kind=kind,
            base=base,
            label=label,
            model_name=(
                (model_name or "lightgbm") if kind == "augment" else None
            ),
            config=resolved,
            use_cache=use_cache,
            future=RequestFuture(),
        )
        self.registry.counter("service.requests_submitted").inc()
        self._queue.put(request)
        self.registry.gauge("service.queue_depth").set(self._queue.qsize())
        return request.future

    def discover(
        self,
        base: str,
        label: str,
        config: AutoFeatConfig | None = None,
        use_cache: bool = True,
        timeout: float | None = None,
        budget_seconds: float | None = None,
        max_hops: int | None = None,
    ) -> ServiceResponse:
        """Synchronous convenience wrapper: submit + wait."""
        return self.submit(
            "discover",
            base,
            label,
            config=config,
            use_cache=use_cache,
            budget_seconds=budget_seconds,
            max_hops=max_hops,
        ).result(timeout)

    def augment(
        self,
        base: str,
        label: str,
        model_name: str = "lightgbm",
        config: AutoFeatConfig | None = None,
        use_cache: bool = True,
        timeout: float | None = None,
        budget_seconds: float | None = None,
        max_hops: int | None = None,
    ) -> ServiceResponse:
        """Synchronous convenience wrapper: submit + wait."""
        return self.submit(
            "augment",
            base,
            label,
            model_name=model_name,
            config=config,
            use_cache=use_cache,
            budget_seconds=budget_seconds,
            max_hops=max_hops,
        ).result(timeout)

    # -- worker side ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                break
            self.registry.gauge("service.queue_depth").set(self._queue.qsize())
            with self._state_lock:
                self._in_flight += 1
                self.registry.gauge("service.requests_in_flight").set(
                    self._in_flight
                )
            try:
                item.future._resolve(self._serve(item))
            except BaseException as exc:  # surface through the future
                self.registry.counter("service.requests_failed").inc()
                item.future._fail(exc)
            finally:
                with self._state_lock:
                    self._in_flight -= 1
                    self.registry.gauge("service.requests_in_flight").set(
                        self._in_flight
                    )

    def _serve(self, request: _Request) -> ServiceResponse:
        queue_seconds = time.perf_counter() - request.submitted_at
        started = time.perf_counter()
        with self._rw.read():
            snapshot = self._snapshot
            key = (
                request.kind,
                request.base,
                request.label,
                request.model_name,
                _config_key(request.config),
            )
            entry = self._lookup(key) if request.use_cache else None
            if entry is not None:
                result = entry.result
                cache_hit = True
            else:
                result = self._run(request, snapshot)
                cache_hit = False
                if request.use_cache and self._cacheable(request, result):
                    self._store(key, request, snapshot, result)
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
        manifest = self._request_manifest(
            request, snapshot, cache_hit, queue_seconds, execute_seconds, memo_gauges
        )
        return ServiceResponse(
            kind=request.kind,
            base_table=request.base,
            label_column=request.label,
            model_name=request.model_name,
            result=result,
            cache_hit=cache_hit,
            budget_exhausted=budget_exhausted,
            snapshot_version=snapshot.version,
            queue_seconds=queue_seconds,
            execute_seconds=execute_seconds,
            manifest=manifest,
        )

    def _run(self, request: _Request, snapshot: LakeSnapshot):
        """Execute one pipeline run against shared immutable state."""
        autofeat = AutoFeat(
            snapshot.drg,
            request.config,
            hop_cache=self.hop_cache,
            memo=self.memo,
        )
        if request.kind == "discover":
            return autofeat.discover(request.base, request.label)
        return autofeat.augment(
            request.base, request.label, model_name=request.model_name
        )

    @staticmethod
    def _cacheable(request: _Request, result) -> bool:
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
        return request.config.budget_seconds is None

    def _lookup(self, key: tuple) -> CachedEntry | None:
        with self._results_lock:
            return self._results.get(key)

    def _store(
        self, key: tuple, request: _Request, snapshot: LakeSnapshot, result
    ) -> None:
        entry = CachedEntry(
            result=result,
            base=request.base,
            max_path_length=request.config.max_path_length,
            reachable=reachable_within(
                snapshot.drg, request.base, request.config.max_path_length
            ),
            version=snapshot.version,
        )
        with self._results_lock:
            self._results[key] = entry

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

    def _request_manifest(
        self,
        request: _Request,
        snapshot: LakeSnapshot,
        cache_hit: bool,
        queue_seconds: float,
        execute_seconds: float,
        memo_gauges: dict,
    ) -> RunManifest:
        timing = flat_node(
            f"service.{request.kind}",
            queue_seconds + execute_seconds,
            children=[
                flat_node("queue", queue_seconds),
                flat_node("execute", execute_seconds, cache_hit=cache_hit),
            ],
            traced=False,
        )
        return build_manifest(
            f"service.{request.kind}",
            config=request.config,
            dataset=snapshot.drg,
            seed=request.config.seed,
            wall_seconds=queue_seconds + execute_seconds,
            timing=timing,
            counters={"service.cache_hit": 1 if cache_hit else 0},
            gauges={
                "service.snapshot_version": snapshot.version,
                "service.queue_depth": self._queue.qsize(),
                **memo_gauges,
            },
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
        """Apply one mutation under the write lock and invalidate."""
        if self._closed:
            raise ServiceError("service is closed; no further mutations")
        with self._rw.write():
            report = operation()
            new_drg = self.index.drg
            if report.content_changed:
                dropped = self.hop_cache.invalidate(report.table)
                self.registry.counter("service.hop_entries_invalidated").inc(
                    dropped
                )
            invalidated = self._invalidate_results(report, new_drg)
            self._snapshot = LakeSnapshot(
                version=self.index.version, drg=new_drg
            )
            self.registry.counter("service.mutations").inc()
            self.registry.counter("service.results_invalidated").inc(
                invalidated
            )
            self.registry.gauge("service.snapshot_version").set(
                self._snapshot.version
            )
        return report

    def _invalidate_results(self, report: MutationReport, new_drg) -> int:
        """Drop exactly the cached results the mutation can affect.

        An entry survives iff its base still exists and no affected table
        lies within its traversal radius in either the old graph (stored
        ``reachable`` envelope) or the new one — see
        :mod:`repro.service.state` for why that is sufficient.
        """
        affected = set(report.affected_tables)
        new_reach: dict[tuple[str, int], frozenset[str]] = {}
        doomed = []
        with self._results_lock:
            for key, entry in self._results.items():
                if entry.base not in new_drg.graph:
                    doomed.append(key)
                    continue
                if affected & entry.reachable:
                    doomed.append(key)
                    continue
                radius = (entry.base, entry.max_path_length)
                if radius not in new_reach:
                    new_reach[radius] = reachable_within(
                        new_drg, entry.base, entry.max_path_length
                    )
                if affected & new_reach[radius]:
                    doomed.append(key)
            for key in doomed:
                del self._results[key]
        return len(doomed)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """One JSON-safe snapshot of the whole service's warm state."""
        with self._results_lock:
            cached_results = len(self._results)
        return {
            "snapshot_version": self._snapshot.version,
            "n_tables": self._snapshot.n_tables,
            "n_relationships": self._snapshot.drg.n_relationships,
            "cached_results": cached_results,
            "hop_cache": self.hop_cache.counters(),
            "hop_cache_entries": len(self.hop_cache),
            "hop_cache_hit_rate": round(self.hop_cache.hit_rate, 6),
            "memo": {
                namespace: counters.as_dict()
                for namespace, counters in self.memo.counters().items()
            },
            "match_index": self.index.counters.as_dict(),
            "metrics": self.registry.as_dict(),
        }
