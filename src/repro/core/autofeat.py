"""AutoFeat — ranking-based transitive feature discovery (Algorithm 1).

The online component of the paper: starting from the base table, traverse
the Dataset Relation Graph breadth-first; at every hop, join, prune on
similarity score and data quality, push the new features through streaming
relevance/redundancy selection, and score the path (Algorithm 2).  The
top-k ranked paths are then materialised in full and evaluated by training
the target model, and the most accurate path wins.

Typical use::

    drg = DatasetRelationGraph.from_discovery(tables, ComaMatcher())
    autofeat = AutoFeat(drg, AutoFeatConfig(tau=0.65, kappa=15))
    result = autofeat.augment("applicants", "loan_approval")
    print(result.summary())
"""

from __future__ import annotations

from dataclasses import replace

from ..dataframe import Table, stratified_sample
from ..engine import (
    FaultManager,
    HopTask,
    JoinEngine,
    PathExecutor,
    PathTask,
    settle_outcome,
)
from ..errors import JoinError, RunBudgetExceeded
from ..graph import DatasetRelationGraph, JoinPath
from ..obs import Span, Tracer, build_manifest, synthetic_root
from .config import AutoFeatConfig
from .materialize import qualified
from .navigation import (
    NavigationFrontier,
    NavigationStats,
    RunBudget,
    UcbFrontierPolicy,
    hop_reward,
)
from .pruning import completeness, similarity_pruned_count
from .ranking import compute_ranking_score
from .result import AugmentationResult, DiscoveryResult, RankedPath, TrainedPath
from .streaming import StreamingFeatureSelector

__all__ = ["AutoFeat", "autofeat_augment"]


class AutoFeat:
    """Feature discovery over a Dataset Relation Graph.

    ``hop_hook`` is the picklable per-hop test hook of every
    :class:`~repro.engine.JoinEngine` the pipeline creates — a
    deterministic :class:`~repro.engine.FaultInjector`, so graceful
    degradation under ``config.failure_policy`` is testable end to end,
    or a :class:`~repro.engine.HopLatency`.
    """

    def __init__(
        self,
        drg: DatasetRelationGraph,
        config: AutoFeatConfig | None = None,
        hop_hook=None,
        hop_cache=None,
        memo=None,
    ):
        self.drg = drg
        self.config = config or AutoFeatConfig()
        self.hop_hook = hop_hook
        #: Optional service-owned :class:`repro.engine.HopCache` shared
        #: across many runs.  When set, every engine this pipeline
        #: creates reuses it instead of building a fresh per-run cache —
        #: the warm-state lever of :class:`repro.service.DiscoveryService`.
        #: Results are bit-identical either way (a cached JoinIndex is
        #: deterministic in its ``(table, key, seed)`` key and the owner
        #: invalidates per-table on mutation); only per-run cache
        #: hit/miss counters reflect the pre-warmed state.
        self.hop_cache = hop_cache
        #: Optional service-owned :class:`~repro.core.OutcomeMemo`: a
        #: selection step, or a top-k fit run in this process, whose exact
        #: input bytes an earlier run saw is answered from it (DESIGN.md
        #: §12).  ``None`` hashes nothing.
        self.memo = memo

    def _executor(
        self, tracer: Tracer, run_deadline: float | None, faults: FaultManager
    ) -> PathExecutor:
        """One per-phase engine + executor carrying the config's budgets.

        ``run_deadline`` threads the run's anytime wall-clock budget into
        every hop for cooperative mid-hop aborts; units re-attempt as
        often as ``faults``' policy allows.
        """
        config = self.config
        engine = JoinEngine(
            self.drg,
            seed=config.seed,
            hop_timeout_seconds=config.hop_timeout_seconds,
            max_output_rows=config.max_hop_output_rows,
            hop_hook=self.hop_hook,
            tracer=tracer,
            cache=self.hop_cache,
            run_deadline=run_deadline,
        )
        return PathExecutor(
            engine,
            backend=config.parallel_backend,
            trace_spans=tracer.enabled,
            attempts=faults.attempts,
        )

    def _navigation(
        self, deadline: float | None
    ) -> tuple[RunBudget, NavigationFrontier]:
        """The run's anytime budget and traversal frontier.

        An explicit ``deadline`` (a shared ``augment`` deadline or a
        service request's) overrides a fresh ``config.budget_seconds``
        countdown.  Unbudgeted runs always get the canonical FIFO
        frontier regardless of ``config.frontier_strategy`` — every path
        is explored anyway, and canonical order is the bit-parity
        contract with the reference traversal (DESIGN.md §14); the UCB
        priority order engages only when there is a budget to spend
        wisely.
        """
        config = self.config
        budget = RunBudget.start(
            config.budget_seconds, config.max_hops, deadline=deadline
        )
        strategy = config.frontier_strategy if budget.active else "fifo"
        policy = UcbFrontierPolicy() if strategy == "ucb" else None
        frontier = NavigationFrontier(
            traversal=config.traversal, strategy=strategy, policy=policy
        )
        return budget, frontier

    def _tracer(self) -> Tracer:
        """One per-run tracer honouring ``config.enable_tracing``."""
        return Tracer(enabled=self.config.enable_tracing)

    def _faults(self, stage: str) -> FaultManager:
        """One per-run fault manager applying the config's policy."""
        config = self.config
        return FaultManager(
            policy=config.failure_policy,
            error_budget=config.error_budget,
            max_retries=config.max_retries,
            stage=stage,
        )

    @staticmethod
    def _wave(tracer: Tracer, executor: PathExecutor, units: int):
        """The span one wave of work units executes and merges under."""
        return tracer.span(
            "wave",
            parallel=True,
            backend=executor.backend,
            workers=executor.workers_used,
            units=units,
        )

    @staticmethod
    def _absorb(executor: PathExecutor, tracer: Tracer, wave, outcome) -> None:
        """Fold a unit's stats delta and span tree into the run's.

        Process workers time against their own ``perf_counter_ns`` clock,
        so their trees are rebased onto the wave's start before grafting;
        serial units share the coordinator's clock and graft verbatim.
        """
        engine = executor.engine
        engine.stats = engine.stats.merged(outcome.stats)
        if not tracer.enabled:
            return
        for data in outcome.spans:
            span = Span.from_dict(data)
            if executor.rebase_spans:
                span.shift(wave.start_ns - span.start_ns)
            wave.children.append(span)

    # -- discovery (ranking) phase ---------------------------------------------

    def discover(
        self,
        base_name: str,
        label_column: str,
        deadline: float | None = None,
    ) -> DiscoveryResult:
        """Rank all surviving join paths from ``base_name``.

        Runs entirely on a stratified sample of the base table; no ML model
        is trained.  Returns paths sorted by ranking score (descending).

        The traversal advances in *waves* of work units, on every
        ``config.parallel_backend``: under BFS one wave is the whole
        current frontier level, under DFS — and under the UCB priority
        frontier of a budgeted run, whose arm statistics must advance
        before the next pop is chosen — it is one popped entry's edge
        fan-out.  Units are enumerated in canonical order (the
        ``neighbors`` / ``best_join_options`` loops, with similarity
        pruning done here on the coordinating thread),
        executed by a :class:`repro.engine.PathExecutor` — inline and
        lazily under ``"serial"``, on a worker pool under
        ``"processes"`` — and merged back **in enumeration order**:
        quality pruning, streaming feature selection, ranking, frontier
        growth, UCB arm updates and the failure policy (with its shared
        error budget) all happen at the merge point only.  That ordering
        is the entire determinism argument: ranked paths, scores,
        selected features and failure reports are bit-identical across
        backends (DESIGN.md §11).

        All hops execute through one :class:`JoinEngine`, so a right-hand
        table reached by many paths is deduped and indexed only once per
        run; the engine's counters are returned on
        ``DiscoveryResult.engine_stats``.  Feature scoring likewise runs
        through one :class:`StreamingFeatureSelector` whose vectorised
        kernels and persistent code cache amortise discretisation and
        ranking across all hops; its counters are returned on
        ``DiscoveryResult.selection_stats``.

        The whole traversal runs under one :class:`repro.obs.Tracer`
        (``discover > wave > {hop > join, selection}`` spans; per-name
        totals only when ``config.enable_tracing`` is off);
        ``discovery_seconds`` and ``feature_selection_seconds`` are read
        off it — the tracer is the run's only clock — and the run's
        :class:`repro.obs.RunManifest` lands on
        ``DiscoveryResult.run_manifest``.

        With an anytime budget set (``config.budget_seconds`` /
        ``config.max_hops``, or an explicit ``deadline`` — an absolute
        ``time.monotonic`` timestamp, as passed by :meth:`augment` and
        the discovery service), the traversal becomes *anytime*: the
        frontier expands in ``config.frontier_strategy`` order and the
        run stops gracefully when the budget expires, returning the
        best-k-so-far with ``budget_exhausted`` set and the navigation
        accounting on ``DiscoveryResult.navigation``.  A ``max_hops`` cap
        truncates work-unit *generation*, so the executed hop set is the
        identical canonical prefix on every backend; the wall-clock
        deadline is checked between waves and cooperatively inside hops,
        and ``n_paths_explored`` counts only hops whose outcome was
        merged, not units the deadline aborted.
        """
        config = self.config
        base = self.drg.table(base_name)
        if label_column not in base:
            raise JoinError(
                f"base table {base_name!r} has no label column {label_column!r}"
            )
        tracer = self._tracer()
        budget, frontier = self._navigation(deadline)
        faults = self._faults("discovery")
        executor = self._executor(tracer, budget.deadline, faults)
        engine = executor.engine

        ranked: list[RankedPath] = []
        # ``generated`` drives the deterministic max_hops cut; ``explored``
        # is what the run reports: units merged without a deadline abort.
        generated = 0
        explored = 0
        pruned_quality = 0
        pruned_similarity = 0
        empty_contribution = 0
        waves = 0
        budget_exhausted = False

        def record_pull(table: str, reward: float) -> None:
            # Every *merged* hop into a table pulls its UCB arm —
            # pruned/failed hops with reward 0, ranked hops with their
            # bounded ranking reward.  No-op under the FIFO frontier.
            if frontier.policy is not None:
                frontier.policy.update(table, reward)

        try:
            with tracer.span("discover", base=base_name, label=label_column) as root:
                with tracer.span("sample", size=config.sample_size):
                    sample = stratified_sample(
                        base, label_column, config.sample_size, seed=config.seed
                    )
                label = sample.column(label_column).to_float()

                selector = StreamingFeatureSelector(config, label)
                if self.memo is not None:
                    selector.use_memo(self.memo)
                base_features = [n for n in sample.column_names if n != label_column]
                if base_features:
                    with tracer.span("selection", batch="seed"):
                        selector.seed_with(
                            base_features, sample.numeric_matrix(base_features)
                        )

                # Each frontier entry carries the partially-joined sample and
                # the qualified features accepted along the path so far.
                frontier.push(JoinPath(base_name), sample, ())
                while frontier and not budget_exhausted:
                    if budget.exhausted(generated):
                        budget_exhausted = True
                        break
                    # Level-synchronous draining reproduces the canonical
                    # FIFO pop order; DFS fully fans an entry out before
                    # descending into its last child.
                    if frontier.strategy != "ucb" and config.traversal == "bfs":
                        entries = frontier.drain_level()
                    else:
                        entries = [frontier.pop()]

                    tasks: list[HopTask] = []
                    for position, entry in enumerate(entries):
                        path = entry.path
                        if path.length >= config.max_path_length:
                            continue
                        visited = set(path.nodes)
                        for neighbor in self.drg.neighbors(path.terminal):
                            if neighbor in visited:
                                continue
                            pruned_similarity += similarity_pruned_count(
                                self.drg, path.terminal, neighbor
                            )
                            for edge in self.drg.best_join_options(
                                path.terminal, neighbor
                            ):
                                if budget.exhausted(generated):
                                    budget_exhausted = True
                                    break
                                generated += 1
                                tasks.append(
                                    HopTask(
                                        index=len(tasks),
                                        path=path,
                                        edge=edge,
                                        table=entry.table,
                                        base_name=base_name,
                                        features=entry.features,
                                    )
                                )
                            if budget_exhausted:
                                break
                        if budget_exhausted:
                            # Level entries the cut never reached go back
                            # on the frontier: only the entry the cut
                            # landed inside counts as consumed.
                            for unreached in entries[position + 1 :]:
                                frontier.push(
                                    unreached.path,
                                    unreached.table,
                                    unreached.features,
                                    unreached.reward,
                                )
                            break
                    if not tasks:
                        continue
                    waves += 1
                    with self._wave(tracer, executor, len(tasks)) as wave:
                        for task, outcome in zip(tasks, executor.run_hops(tasks)):
                            self._absorb(executor, tracer, wave, outcome)
                            try:
                                hop = settle_outcome(task, outcome, faults)
                            except RunBudgetExceeded:
                                # The wall-clock deadline landed inside
                                # the hop: graceful anytime exhaustion,
                                # neither a failure nor a pruned path.
                                # The run stops after this wave's merge;
                                # pool units that finished in time still
                                # merge, serial ones abort at hop entry.
                                budget_exhausted = True
                                continue
                            except JoinError:
                                # An unfeasible join is Algorithm 1's
                                # pruning input, under every policy.
                                pruned_quality += 1
                                hop = None
                            explored += 1
                            if hop is not None:
                                joined, contributed = hop
                                comp = completeness(joined, contributed)
                                if not contributed:
                                    # A hop may contribute no columns at
                                    # all; that is not poor join quality —
                                    # keep it traversable (see the
                                    # stepping-stone note below) and count it.
                                    empty_contribution += 1
                                elif comp < config.tau:
                                    pruned_quality += 1
                                    hop = None
                            if hop is None:
                                record_pull(task.edge.target, 0.0)
                                continue

                            join_key = qualified(
                                task.edge.target, task.edge.target_column
                            )
                            candidates = [c for c in contributed if c != join_key]
                            with tracer.span(
                                "selection", features=len(candidates)
                            ) as span:
                                batch = selector.process_batch(
                                    candidates, joined.numeric_matrix(candidates)
                                )
                            if tracer.enabled and self.memo is not None:
                                span.attrs["memo_hit"] = selector.memo_hit
                            score = compute_ranking_score(
                                batch.relevance_scores, batch.redundancy_scores
                            )
                            reward = hop_reward(score, comp)
                            record_pull(task.edge.target, reward)
                            new_path = task.path.extend(task.edge)
                            new_features = task.features + batch.accepted_names
                            ranked.append(
                                RankedPath(
                                    path=new_path,
                                    score=score,
                                    selected_features=new_features,
                                    relevance_scores=batch.relevance_scores,
                                    redundancy_scores=batch.redundancy_scores,
                                    completeness=comp,
                                    relevant_names=batch.relevant_names,
                                )
                            )
                            # Even an all-irrelevant join stays in the
                            # frontier: it may be the gateway to a relevant
                            # transitive table.
                            frontier.push(new_path, joined, new_features, reward)
                if budget_exhausted:
                    tracer.event(
                        "budget_exhausted",
                        hops=explored,
                        frontier_unexplored=len(frontier),
                    )
        finally:
            executor.close()

        discovery_seconds = root.seconds
        selection_seconds = tracer.total_seconds("selection")

        ranked.sort(key=lambda r: (-r.score, r.path.length, r.path.describe()))
        engine_stats = engine.snapshot()
        selection_stats = selector.stats
        failure_report = faults.report()
        navigation = NavigationStats(
            strategy=frontier.strategy,
            budget_seconds=config.budget_seconds,
            max_hops=config.max_hops,
            hops_executed=explored,
            budget_exhausted=budget_exhausted,
            frontier_unexplored=len(frontier),
            best_score=ranked[0].score if ranked else 0.0,
            arms_tracked=frontier.policy.n_arms if frontier.policy else 0,
        )
        manifest = build_manifest(
            "discovery",
            tracer=tracer,
            config=config,
            dataset=self.drg,
            seed=config.seed,
            wall_seconds=discovery_seconds,
            records=[engine_stats, selection_stats, failure_report, navigation],
            counters={
                "discovery.paths_explored": explored,
                "discovery.paths_ranked": len(ranked),
                "discovery.pruned_quality": pruned_quality,
                "discovery.pruned_similarity": pruned_similarity,
                "discovery.hops_empty_contribution": empty_contribution,
                "discovery.waves": waves,
            },
            gauges=self._parallel_gauges(executor),
        )
        return DiscoveryResult(
            base_table=base_name,
            label_column=label_column,
            ranked_paths=tuple(ranked),
            n_paths_explored=explored,
            n_paths_pruned_quality=pruned_quality,
            n_joins_pruned_similarity=pruned_similarity,
            feature_selection_seconds=selection_seconds,
            discovery_seconds=discovery_seconds,
            engine_stats=engine_stats,
            selection_stats=selection_stats,
            n_hops_empty_contribution=empty_contribution,
            failure_report=failure_report,
            run_manifest=manifest,
            budget_exhausted=budget_exhausted,
            navigation=navigation,
        )

    @staticmethod
    def _parallel_gauges(executor: PathExecutor) -> dict:
        """The executor's utilisation gauges, reported on every backend."""
        return {
            "parallel.workers_used": executor.workers_used,
            "parallel.speedup": round(executor.effective_speedup, 4),
            "parallel.busy_seconds": round(executor.busy_seconds, 6),
            "parallel.wall_seconds": round(executor.parallel_wall_seconds, 6),
        }

    # -- training phase -----------------------------------------------------------

    def train_top_k(
        self,
        discovery: DiscoveryResult,
        model_name: str = "lightgbm",
        deadline: float | None = None,
    ) -> AugmentationResult:
        """Materialise and evaluate the top-k ranked paths; keep the best.

        Training uses the *full* base table (sampling only ever affected
        feature selection) and only the features accepted along each path,
        plus all base-table features.  The top-k paths often share hops, so
        materialisation runs through one cached :class:`JoinEngine`; its
        counters land on ``AugmentationResult.engine_stats``.

        The top-k paths are independent work units (materialise + train),
        executed as one wave on ``config.parallel_backend`` and merged
        back in ranked order: trained paths, failure records and the
        best-path tie-break (first index wins on equal accuracy) consume
        outcomes one at a time, so the result is bit-identical across
        backends.  With a memo, ``serial`` units answer a fit whose exact
        arguments an earlier run trained on from it.

        Full-table materialisation can fail even though the sampled
        discovery pass succeeded (the sample may have dodged the rows that
        break a join).  Under ``skip_and_record`` /``retry`` such a path is
        recorded on ``AugmentationResult.failure_report`` and skipped, and
        the remaining top-k paths still train; ``fail_fast`` propagates.

        The training phase runs under a ``train`` span tree (``train >
        wave > path > evaluate``; totals only when tracing is off) that
        is composed with the discovery phase's tree into one ``augment``
        manifest on ``AugmentationResult.run_manifest``.

        With an anytime deadline active (``config.budget_seconds``, or
        the explicit ``deadline`` that :meth:`augment` shares across
        both phases), training stops gracefully once it expires: the
        paths trained in time still compete and the result is returned
        with ``budget_exhausted`` set.  ``config.max_hops`` applies to
        discovery only.
        """
        config = self.config
        tracer = self._tracer()
        budget = RunBudget.start(config.budget_seconds, None, deadline=deadline)
        faults = self._faults("training")
        executor = self._executor(tracer, budget.deadline, faults)
        base = self.drg.table(discovery.base_table)
        base_features = [
            n for n in base.column_names if n != discovery.label_column
        ]

        trained: list[TrainedPath] = []
        tables: list[Table] = []
        # Nothing left to spend: return the anytime result with zero
        # trained paths rather than starting units that would only abort.
        budget_exhausted = budget.expired()
        top = [] if budget_exhausted else list(discovery.top(config.top_k))
        # The memo cannot be pickled: pool units train as if there were none.
        memo = self.memo if executor.backend == "serial" else None
        try:
            with tracer.span(
                "train", base=discovery.base_table, model=model_name
            ) as root:
                tasks = [
                    PathTask(
                        index=index,
                        path=ranked.path,
                        selected_features=ranked.selected_features,
                        base_name=discovery.base_table,
                        label_column=discovery.label_column,
                        model_name=model_name,
                        seed=config.seed,
                        memo=memo,
                    )
                    for index, ranked in enumerate(top)
                ]
                if tasks:
                    with self._wave(tracer, executor, len(tasks)) as wave:
                        for task, ranked, outcome in zip(
                            tasks, top, executor.run_paths(tasks)
                        ):
                            self._absorb(executor, tracer, wave, outcome)
                            try:
                                result = settle_outcome(task, outcome, faults)
                            except RunBudgetExceeded:
                                # Deadline landed mid-materialisation:
                                # graceful exhaustion, not a training
                                # failure — whatever trained in time
                                # still competes below.
                                budget_exhausted = True
                                continue
                            if result is None:
                                continue
                            table, accuracy, n_features = result
                            trained.append(
                                TrainedPath(
                                    ranked=ranked,
                                    accuracy=accuracy,
                                    n_features_used=n_features,
                                )
                            )
                            tables.append(table)
        finally:
            executor.close()

        best = None
        augmented = None
        if trained:
            best_idx = max(range(len(trained)), key=lambda i: trained[i].accuracy)
            best = trained[best_idx]
            keep = (
                base_features
                + [f for f in best.ranked.selected_features if f in tables[best_idx]]
                + [discovery.label_column]
            )
            augmented = tables[best_idx].select(keep)

        total_seconds = discovery.discovery_seconds + root.seconds
        engine_stats = executor.engine.snapshot()
        failure_report = faults.report()
        budget_exhausted = budget_exhausted or discovery.budget_exhausted
        gauges = self._parallel_gauges(executor)
        if best is not None:
            gauges["train.best_accuracy"] = round(best.accuracy, 6)
        # Compose discovery + training into one ``augment`` manifest.
        discovery_manifest = discovery.run_manifest or build_manifest(
            "discover", wall_seconds=discovery.discovery_seconds
        )
        manifest = build_manifest(
            "augment",
            config=config,
            dataset=self.drg,
            seed=config.seed,
            wall_seconds=total_seconds,
            timing=synthetic_root(
                "augment", [discovery_manifest.timing, tracer.timing_tree()]
            ),
            records=[
                discovery.engine_stats.merged(engine_stats),
                discovery.selection_stats,
                discovery.failure_report.merged(failure_report),
                replace(discovery.navigation, budget_exhausted=budget_exhausted),
            ],
            counters={"train.paths_trained": len(trained)},
            gauges=gauges,
        )

        return AugmentationResult(
            discovery=discovery,
            trained=tuple(trained),
            best=best,
            augmented_table=augmented,
            model_name=model_name,
            total_seconds=total_seconds,
            engine_stats=engine_stats,
            failure_report=failure_report,
            run_manifest=manifest,
            budget_exhausted=budget_exhausted,
        )

    def augment(
        self,
        base_name: str,
        label_column: str,
        model_name: str = "lightgbm",
        deadline: float | None = None,
    ) -> AugmentationResult:
        """Full pipeline: discover, rank, train top-k, return the best.

        ``config.budget_seconds`` (or an explicit ``deadline``) is one
        budget for the *whole* pipeline: the deadline is computed once
        here and shared by both phases, so a discovery phase that uses
        most of it leaves only the remainder for training.
        """
        if deadline is None:
            deadline = RunBudget.compute_deadline(self.config.budget_seconds)
        discovery = self.discover(base_name, label_column, deadline=deadline)
        return self.train_top_k(discovery, model_name=model_name, deadline=deadline)


def autofeat_augment(
    drg: DatasetRelationGraph,
    base_name: str,
    label_column: str,
    config: AutoFeatConfig | None = None,
    model_name: str = "lightgbm",
    hop_hook=None,
) -> AugmentationResult:
    """One-call convenience wrapper around :class:`AutoFeat`."""
    return AutoFeat(drg, config, hop_hook=hop_hook).augment(
        base_name, label_column, model_name
    )
