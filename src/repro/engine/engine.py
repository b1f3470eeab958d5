"""The shared join-execution engine: plan/execute split over the DRG.

Everything in the system that joins along DRG edges — the discovery BFS,
top-k path materialisation, and all four baselines — executes through one
:class:`JoinEngine`.  The engine separates the two halves of a hop:

* **plan** — resolve the edge into a probe column and a build-side
  :class:`~repro.dataframe.JoinIndex` (served by the :class:`HopCache`
  whenever the same ``(table, key_column, seed)`` was built before);
* **execute** — probe through the index (:meth:`JoinEngine.probe_hop`,
  which yields the index and the probe's row map) and, for
  :meth:`JoinEngine.apply_hop`, attach the build columns along it.

A path is a chain of row maps: each hop's map aligns its build table's
rows with the base rows, so the next hop reads its probe key from that
build table along the map (``probe_hop(..., row_map=)``).  Discovery
never builds a joined table — it gathers only the columns it scores
(``AutoFeat._hop``) — and :meth:`JoinEngine.materialize_path` walks the
same chain to build the one table training needs.

The engine also owns the run's :class:`ExecutionStats`, so every consumer
gets observable build/probe/cache counters for free.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

import numpy as np

from ..dataframe import JoinIndex, Table, gather_rows
from ..errors import FaultError, JoinError, RunBudgetExceeded
from ..graph import DatasetRelationGraph, JoinPath, OrientedEdge
from ..obs.tracer import NULL_TRACER, Tracer
from .hop_cache import HopCache
from .naming import qualified, source_column_name
from .stats import ExecutionStats

__all__ = ["JoinEngine"]


def _hop_context(base_name: str, path: JoinPath | None, edge: OrientedEdge) -> str:
    """Render the path context attached to hop-level :class:`JoinError`."""
    prefix = path.describe() if path is not None and path.edges else "(at base)"
    failing = (
        f"{edge.source}.{edge.source_column} -> {edge.target}.{edge.target_column}"
    )
    return f"base={base_name!r} path=[{prefix}] failing edge [{failing}]"


class JoinEngine:
    """Executes DRG join hops with cross-path build-state reuse.

    One engine instance spans one logical run (a discovery traversal, a
    top-k training pass, or a baseline's join loop): every hop executed
    through it shares the :class:`HopCache` and accumulates into the same
    :class:`ExecutionStats`.

    Parameters
    ----------
    drg:
        The dataset relation graph whose tables the engine joins.
    seed:
        Seed for the deterministic representative-row choice during the
        build phase; part of the cache key.
    hop_hook:
        Optional callable ``hook(edge)`` invoked at the top of every hop
        — the one test seam: a hook that raises a
        :class:`~repro.errors.FaultError` (which gets the hop context
        attached) injects a fault, one that sleeps simulates a slow
        table.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When given (and enabled),
        every executed hop opens a ``join`` span nested under the
        caller's current span, and hop-cache lookups emit ``cache_hit`` /
        ``cache_miss`` events onto it.  Defaults to the shared no-op
        tracer.
    cache:
        Share an existing :class:`HopCache` instead of creating one —
        how a long-lived service reuses build state across runs.
    run_deadline:
        Absolute ``time.monotonic`` timestamp of the run-level anytime
        budget (None = unbudgeted).  Hops check it cooperatively — at hop
        entry and after the index build — and raise
        :class:`~repro.errors.RunBudgetExceeded` once it has passed, which
        the navigator treats as graceful exhaustion rather than a hop
        failure.
    """

    def __init__(
        self,
        drg: DatasetRelationGraph,
        seed: int = 0,
        hop_hook: Callable[[OrientedEdge], None] | None = None,
        tracer: Tracer | None = None,
        cache: HopCache | None = None,
        run_deadline: float | None = None,
    ):
        self.drg = drg
        self.seed = seed
        self.cache = cache if cache is not None else HopCache()
        self.stats = ExecutionStats()
        self.hop_hook = hop_hook
        self.tracer = tracer or NULL_TRACER
        self.run_deadline = run_deadline

    # -- plan phase ---------------------------------------------------------

    def hop_index(self, edge: OrientedEdge) -> JoinIndex:
        """The build-side index for ``edge``'s target table, cached.

        The target table is prefixed (``table.column`` qualification) and
        deduplicated on the qualified join key; both happen at most once
        per ``(target, key, seed)`` for the lifetime of the engine.
        """
        key_column = qualified(edge.target, edge.target_column)
        table = self.drg.table(edge.target)

        def builder() -> JoinIndex:
            right = table.prefixed(edge.target)
            return JoinIndex.build(right, key_column, seed=self.seed)

        hits_before = self.stats.cache_hits
        index = self.cache.get_or_build(
            table, key_column, self.seed, builder, self.stats
        )
        self.tracer.event(
            "cache_hit" if self.stats.cache_hits > hits_before else "cache_miss",
            table=edge.target,
            key=key_column,
        )
        return index

    # -- execute phase ------------------------------------------------------

    def _check_run_deadline(self, context: str) -> None:
        """Raise :class:`RunBudgetExceeded` once the run deadline passed."""
        if self.run_deadline is not None and time.monotonic() >= self.run_deadline:
            raise RunBudgetExceeded(f"run budget expired; {context}")

    def probe_hop(
        self,
        current: Table,
        edge: OrientedEdge,
        base_name: str,
        path: JoinPath | None = None,
        row_map: np.ndarray | None = None,
    ) -> tuple[JoinIndex, np.ndarray]:
        """Plan and probe one hop: ``(index, row_map)``.

        ``index`` is the target table's cached build side and the returned
        ``row_map`` maps each probe row to an int64 build row, -1 where
        unmatched.  Every hop — discovery's gathers and :meth:`apply_hop`'s
        tables — enters here.

        Without ``row_map``, ``current`` is the running join and the probe
        key is the column :func:`source_column_name` finds in it.  With
        one, ``current`` is the previous hop's build table, ``row_map``
        aligns its rows with the base rows, and the probe key is
        ``current``'s column of the edge's exact qualified name, read
        along the map.

        Raises :class:`JoinError` when the join is unfeasible: the source
        column is missing (can happen on spurious discovery edges) —
        Algorithm 1 prunes such paths.  Raises whatever
        typed fault the hop hook raises.  Every error message carries
        the base table, the hop sequence walked so far (when ``path`` is
        given) and the failing edge, so pruned-path and failure-report
        diagnostics are actionable.
        """
        self._check_run_deadline(_hop_context(base_name, path, edge))
        if self.hop_hook is not None:
            try:
                self.hop_hook(edge)
            except FaultError as exc:
                raise type(exc)(
                    f"{exc}; {_hop_context(base_name, path, edge)}"
                ) from exc
        if row_map is None:
            left_col = source_column_name(edge, base_name, current.column_names)
        else:
            left_col = qualified(edge.source, edge.source_column)
        if left_col not in current:
            raise JoinError(
                f"join column {left_col!r} is not available in the running "
                f"join; {_hop_context(base_name, path, edge)}"
            )
        keys = current.column(left_col)
        if row_map is not None:
            keys = gather_rows(keys, row_map)
        with self.tracer.span(
            "join", table=edge.target, key=edge.target_column, rows=len(keys)
        ):
            try:
                index = self.hop_index(edge)
            except JoinError as exc:
                raise JoinError(
                    f"{exc}; {_hop_context(base_name, path, edge)}"
                ) from exc
            # Cooperative check between the build and probe phases: a run
            # whose deadline landed inside the index build aborts before
            # paying for the probe as well.
            self._check_run_deadline(_hop_context(base_name, path, edge))
            self.stats.hops_executed += 1
            self.stats.rows_probed += len(keys)
            row_map = index.probe(keys)
        return index, row_map

    def apply_hop(
        self,
        current: Table,
        edge: OrientedEdge,
        base_name: str,
        path: JoinPath | None = None,
    ) -> tuple[Table, list[str]]:
        """Left-join one hop onto the running table.

        Returns ``(joined, contributed_columns)`` where the contributed
        columns are the names under which the joined table holds
        everything the right table added (join key included — its
        completeness is what quality pruning inspects): the qualified
        build names, ``"_r"``-suffixed where the running join already held
        one.  Raises what :meth:`probe_hop` raises.

        The probe key is found by name in ``current``
        (:func:`source_column_name`), so this table route cannot tell a
        key written as ``t.k_r`` from a real ``k_r`` column of ``t``: a
        second hop out of a table that holds both probes with ``t.k_r``.
        :meth:`materialize_path`, discovery and the baselines walk the
        row-map chain and read the key by its exact name instead; the one
        caller outside the tests is the staged replay of the end-to-end
        benchmark (``benchmarks/e2e/staged.py``).
        """
        index, row_map = self.probe_hop(current, edge, base_name, path=path)
        contributed = [out for __, out in index.output_names(current.column_names)]
        return index.attach(current, row_map), contributed

    def materialize_path(
        self, path: JoinPath, base_table: Table
    ) -> tuple[Table, list[list[str]]]:
        """Join the full path onto ``base_table``, hop by hop.

        Returns the augmented table and, per hop, the list of qualified
        columns that hop contributed.  Each hop probes along the previous
        hop's row map (:meth:`probe_hop`), the chain discovery walks; the
        table is only what is attached along the way.
        """
        current = source = base_table
        row_map = None
        contributions: list[list[str]] = []
        walked = JoinPath(path.base)
        for edge in path.edges:
            with self.tracer.span("hop", table=edge.target, key=edge.target_column):
                index, row_map = self.probe_hop(
                    source, edge, path.base, path=walked, row_map=row_map
                )
                names = index.output_names(current.column_names)
                current = index.attach(current, row_map)
            contributions.append([out for __, out in names])
            source = index.build_table
            walked = walked.extend(edge)
        return current, contributions

    # -- observability ------------------------------------------------------

    def snapshot(self) -> ExecutionStats:
        """A copy of the engine's counters that later hops do not change."""
        return replace(self.stats)
