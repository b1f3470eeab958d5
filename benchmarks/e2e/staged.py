"""The traced run: the pipeline executed stage by stage under our own spans.

Spans are recorded here, in the benchmark, around calls into each layer's
public functions — the library is not instrumented.  The staged execution
replays exactly what one ``AutoFeat.discover`` / ``augment`` call does
(Algorithm 1's BFS through ``JoinEngine.apply_hop`` and one
``StreamingFeatureSelector``; then materialise → split → encode → fit →
predict for the top-k) and asserts it reproduces the one-call result, so a
per-layer time is the time of the same work, not of a look-alike.
"""

from __future__ import annotations

import resource
import time
from collections import deque
from contextlib import contextmanager

import numpy as np

from repro import AutoFeat, AutoFeatConfig, ExecutionStats, JoinEngine, JoinIndex
from repro.core import (
    StreamingFeatureSelector,
    completeness,
    compute_ranking_score,
    qualified,
)
from repro.dataframe import stratified_sample, train_test_split_indices
from repro.discovery import profile_table
from repro.errors import JoinError
from repro.graph import JoinPath, enumerate_paths
from repro.ml import MODEL_REGISTRY, TabularEncoder, accuracy, encode_labels

from checks import ranking_of
from workloads import Lake, Workload, cold_drg


def rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """In-memory span log: ``[name, start, end, parent, op]`` rows."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.rows[index][2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (service request records)."""
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, start, end, parent, self.op])

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.rows if n == name)

    def dump(self) -> list[list]:
        """Rows with times in ms relative to the first span."""
        if not self.rows:
            return []
        origin = self.rows[0][1]
        return [
            [n, round((s - origin) * 1e3, 3), round((e - origin) * 1e3, 3), p, op]
            for n, s, e, p, op in self.rows
        ]


def replay_discover(drg, lake: Lake, config: AutoFeatConfig, spans: Spans):
    """Algorithm 1's serial BFS, re-driven through the public layer calls.

    Returns ``(ranked, engine_stats, selection_stats)`` with ``ranked`` in
    the library's order.  Budgets, faults and the DFS ablation are not
    replayed: the benchmark runs none of them.
    """
    engine = JoinEngine(drg, seed=config.seed)
    base = drg.table(lake.base)
    with spans.span("dataframe.sample"):
        sample = stratified_sample(
            base, lake.label, config.sample_size, seed=config.seed
        )
    selector = StreamingFeatureSelector(
        config, sample.column(lake.label).to_float()
    )
    base_features = [n for n in sample.column_names if n != lake.label]
    with spans.span("selection.score"):
        selector.seed_with(base_features, sample.numeric_matrix(base_features))

    ranked = []
    frontier = deque([(JoinPath(lake.base), sample, ())])
    while frontier:
        path, current, path_features = frontier.popleft()
        if path.length >= config.max_path_length:
            continue
        visited = set(path.nodes)
        for neighbor in drg.neighbors(path.terminal):
            if neighbor in visited:
                continue
            for edge in drg.best_join_options(path.terminal, neighbor):
                try:
                    with spans.span("engine.hop"):
                        joined, contributed = engine.apply_hop(
                            current, edge, lake.base, path=path
                        )
                except JoinError:
                    continue
                comp = completeness(joined, contributed)
                if contributed and comp < config.tau:
                    continue
                key = qualified(edge.target, edge.target_column)
                candidates = [c for c in contributed if c != key]
                with spans.span("selection.score"):
                    outcome = selector.process_batch(
                        candidates, joined.numeric_matrix(candidates)
                    )
                score = compute_ranking_score(
                    outcome.relevance_scores, outcome.redundancy_scores
                )
                new_path = path.extend(edge)
                features = path_features + outcome.accepted_names
                ranked.append((new_path, score, features))
                frontier.append((new_path, joined, features))
    ranked.sort(key=lambda r: (-r[1], r[0].length, r[0].describe()))
    return ranked, engine.snapshot(), selector.stats


def staged_train(drg, lake: Lake, discovery, model: str, config, spans: Spans):
    """``train_top_k`` stage by stage; returns accuracies and counters."""
    engine = JoinEngine(drg, seed=config.seed)
    base = drg.table(lake.base)
    base_features = [n for n in base.column_names if n != lake.label]
    accuracies, n_features = [], []
    for ranked in discovery.top(config.top_k):
        with spans.span("engine.materialize"):
            table, _ = engine.materialize_path(ranked.path, base)
        features = base_features + [
            f for f in ranked.selected_features if f in table
        ]
        with spans.span("dataframe.split_take"):
            raw = np.asarray(table.column(lake.label).to_list(), dtype=object)
            y, _ = encode_labels(raw)
            train_idx, test_idx = train_test_split_indices(
                table.n_rows, y, test_fraction=0.2, seed=config.seed
            )
            train, test = table.take(train_idx), table.take(test_idx)
        with spans.span("ml.encode"):
            encoder = TabularEncoder()
            x_train = encoder.fit_transform(train, features)
            x_test = encoder.transform(test)
        with spans.span("ml.fit"):
            fitted = MODEL_REGISTRY[model](config.seed)
            fitted.fit(x_train, y[train_idx])
        with spans.span("ml.predict"):
            predictions = fitted.predict(x_test)
        accuracies.append(accuracy(y[test_idx], predictions))
        n_features.append(len(features))
    return accuracies, n_features, engine.snapshot()


def tracing_overhead(drg, lake: Lake, pairs: int) -> float:
    """Median of discover(default tracing) / discover(enable_tracing=False)."""
    untraced = AutoFeatConfig(enable_tracing=False)
    ratios = []
    for _ in range(pairs):
        start = time.perf_counter()
        AutoFeat(drg).discover(lake.base, lake.label)
        middle = time.perf_counter()
        AutoFeat(drg, untraced).discover(lake.base, lake.label)
        ratios.append((middle - start) / (time.perf_counter() - middle))
    return float(np.median(ratios))


def reprofile_ms(lake: Lake, spans: Spans) -> float:
    """Median ``profile_table`` time over the satellites a mutation can hit."""
    samples = []
    for table in lake.tables[1:]:
        start = time.perf_counter()
        profile_table(table)
        end = time.perf_counter()
        spans.add("discovery.reprofile", start, end)
        samples.append((end - start) * 1e3)
    return float(np.median(samples))


def run_staged(workload: Workload, lake: Lake, spans: Spans, smoke: bool):
    """One-call op, then the same pipeline staged; per-layer metrics + failures."""
    config = AutoFeatConfig()
    failures: list[str] = []
    m: dict[str, float] = {}

    # The reference: the workload's own one-call pipeline, untraced.
    setup_drg = None if workload.match_in_op else cold_drg(lake.tables)
    start = time.perf_counter()
    drg_ref, reference = workload.pipeline(lake, setup_drg)
    op_s = time.perf_counter() - start
    ref_discovery = reference.discovery if workload.model else reference

    with spans.span("discovery.profile"):
        for table in lake.tables:
            profile_table(table)
    with spans.span("discovery.from_discovery"):
        drg = cold_drg(lake.tables)
    m["discovery.rss_hwm_mb"] = rss_mb()
    if drg.edge_fingerprint() != drg_ref.edge_fingerprint():
        failures.append("staged DRG differs from the one-call DRG")
    with spans.span("graph.enumerate"):
        paths = enumerate_paths(drg.graph, lake.base, config.max_path_length)

    with spans.span("core.discover"):
        discovery = AutoFeat(drg, config).discover(lake.base, lake.label)
    if ranking_of(discovery) != ranking_of(ref_discovery):
        failures.append("staged discover ranks differ from the one-call result")
    with spans.span("replay"):
        replayed, engine_stats, selection_stats = replay_discover(
            drg, lake, config, spans
        )
    if [(p.describe(), s, f) for p, s, f in replayed] != ranking_of(discovery):
        failures.append("replayed traversal differs from AutoFeat.discover")
    for name, mine, theirs in (
        ("engine", engine_stats, discovery.engine_stats),
        ("selection", selection_stats, discovery.selection_stats),
    ):
        if mine != theirs:
            failures.append(f"replayed {name} counters differ: {mine} != {theirs}")

    used = {(e.target, e.target_column) for r in discovery.ranked_paths for e in r.path.edges}
    with spans.span("dataframe.index_build"):
        for table, column in sorted(used):
            JoinIndex.build(
                drg.table(table).prefixed(table), qualified(table, column),
                seed=config.seed,
            )

    # ru_maxrss only grows, so each mark is the high water up to that stage:
    # matching, then discovery's joins, then top-k materialisation + training.
    m["engine.rss_hwm_mb"] = rss_mb()

    accuracies, n_features = [], []
    train_stats = ExecutionStats()
    if workload.model:
        with spans.span("core.train_top_k"):
            AutoFeat(drg, config).train_top_k(discovery, workload.model)
        accuracies, n_features, train_stats = staged_train(
            drg, lake, discovery, workload.model, config, spans
        )
        if max(accuracies) != reference.best.accuracy:
            failures.append(
                f"staged best accuracy {max(accuracies)} != {reference.best.accuracy}"
            )
    m["ml.rss_hwm_mb"] = rss_mb()

    total = spans.total
    profile_s = total("discovery.profile")
    match_s = total("discovery.from_discovery") - profile_s
    discover_s = total("core.discover")
    engine_s, selection_s = total("engine.hop"), total("selection.score")
    sample_s = total("dataframe.sample")
    train_leaves = sum(
        total(n)
        for n in ("engine.materialize", "dataframe.split_take", "ml.encode", "ml.fit", "ml.predict")
    )
    # core's own time is what its one-call spans hold beyond the layer calls
    # replayed under them (manifests, ranking, bookkeeping).
    orchestration_s = discover_s - engine_s - selection_s - sample_s
    if workload.model:
        orchestration_s += total("core.train_top_k") - train_leaves
    # What the staged equivalent of the op took, and how much of the
    # one-call op the named layer spans of its stages account for.
    in_op_match = total("discovery.from_discovery") if workload.match_in_op else 0.0
    staged_s = in_op_match + total("replay") + train_leaves
    attributed_s = (
        in_op_match + engine_s + selection_s + sample_s + train_leaves + orchestration_s
    )
    engine_total = engine_stats.merged(train_stats)
    n_ranked = len(discovery.ranked_paths)
    accepted = sum(len(r.redundancy_scores) for r in discovery.ranked_paths)
    m.update({
        "discovery.profile_s": profile_s,
        "discovery.match_s": match_s,
        "discovery.table_pairs": len(lake.tables) * (len(lake.tables) - 1) // 2,
        "graph.relationships": drg.n_relationships,
        "graph.paths_enumerated": len(paths),
        "graph.enumerate_s": total("graph.enumerate"),
        "core.discover_s": discover_s,
        "core.paths_explored": discovery.n_paths_explored,
        "core.paths_pruned_quality": discovery.n_paths_pruned_quality,
        "core.joins_pruned_similarity": discovery.n_joins_pruned_similarity,
        "core.paths_ranked": n_ranked,
        "core.rank_yield": n_ranked / max(1, discovery.n_paths_explored),
        "core.orchestration_s": orchestration_s,
        "dataframe.sample_s": sample_s,
        "dataframe.index_build_s": total("dataframe.index_build"),
        "dataframe.split_take_s": total("dataframe.split_take"),
        "dataframe.rows_probed_per_s": engine_stats.rows_probed / engine_s if engine_s else 0.0,
        "engine.replay_s": engine_s,
        "engine.materialize_s": total("engine.materialize"),
        "engine.hops_executed": engine_total.hops_executed,
        "engine.index_builds": engine_total.index_builds,
        "engine.rows_probed": engine_total.rows_probed,
        "engine.cache_hit_ratio": engine_stats.cache_hit_rate,
        "selection.replay_s": selection_s,
        "selection.batches_scored": selection_stats.batches_scored,
        "selection.features_ranked": selection_stats.features_ranked,
        "selection.scalar_fallbacks": selection_stats.scalar_fallbacks,
        "selection.code_reuse_ratio": selection_stats.code_reuse_rate,
        "selection.accept_ratio": accepted / max(1, selection_stats.features_ranked),
        "ml.encode_s": total("ml.encode"),
        "ml.fit_s": total("ml.fit"),
        "ml.predict_s": total("ml.predict"),
        "ml.models_trained": len(accuracies),
        "ml.mean_features": float(np.mean(n_features)) if n_features else 0.0,
        "ml.fit_share": total("ml.fit") / op_s,
        "ml.best_accuracy": max(accuracies) if accuracies else 0.0,
        "obs.tracing_overhead_ratio": tracing_overhead(drg, lake, 2 if smoke else 3),
        "trace.reference_op_s": op_s,
        "trace.staged_overhead_ratio": staged_s / op_s,
        "trace.attributed_ratio": attributed_s / op_s,
    })
    return m, failures
