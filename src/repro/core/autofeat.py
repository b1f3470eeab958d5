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
from ..engine import FaultManager, JoinEngine, parallel
from ..errors import FaultError, JoinError, RunBudgetExceeded
from ..graph import DatasetRelationGraph, JoinPath
from ..obs import Tracer, build_manifest, synthetic_root
from .config import AutoFeatConfig
from .navigation import (
    NavigationFrontier,
    NavigationStats,
    RunBudget,
    UcbFrontierPolicy,
    hop_reward,
)
from .ranking import compute_ranking_score
from .result import (
    AugmentationResult,
    DiscoveryResult,
    HopVerdict,
    RankedPath,
    TrainedPath,
    tally,
)
from .streaming import StreamingFeatureSelector

__all__ = ["AutoFeat"]


class AutoFeat:
    """Feature discovery over a Dataset Relation Graph.

    ``hop_hook`` is the per-hop test seam of every
    :class:`~repro.engine.JoinEngine` the pipeline creates, ``hook(edge)``:
    a hook that raises a deterministic fault makes graceful degradation
    (the fault is skipped and recorded) testable end to end; one that sleeps
    simulates a slow table.
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
        #: deterministic in its ``(table, key, seed)`` key and an entry
        #: built from another table object is rebuilt); only per-run cache
        #: hit/miss counters reflect the pre-warmed state.
        self.hop_cache = hop_cache
        #: Optional service-owned :class:`~repro.core.OutcomeMemo`: a
        #: selection step or a top-k fit (inline or pooled) whose exact
        #: input bytes an earlier run saw is answered from it (DESIGN.md
        #: §12).  ``None`` hashes nothing.
        self.memo = memo

    def _engine(self, tracer: Tracer, run_deadline: float | None) -> JoinEngine:
        """One per-phase engine.

        ``run_deadline`` threads the run's anytime wall-clock budget into
        every hop for cooperative mid-hop aborts.
        """
        return JoinEngine(
            self.drg,
            seed=self.config.seed,
            hop_hook=self.hop_hook,
            tracer=tracer,
            cache=self.hop_cache,
            run_deadline=run_deadline,
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

        Algorithm 1 as one in-process loop: pop a frontier entry, and for
        each of its canonical hops (the ``neighbors`` /
        ``best_join_options`` loops, similarity pruning included) join,
        score and push, one hop at a time.  :meth:`_hop` turns each hop
        into one :class:`~repro.core.result.HopVerdict`; frontier growth,
        UCB arm updates, the ``max_hops`` cut and every count the run
        reports are read off that log.  Discovery never starts a pool:
        only training fits may use one (DESIGN.md §11).

        All hops run through one :class:`JoinEngine` (a table reached by
        many paths is indexed once) and all scoring through one
        :class:`StreamingFeatureSelector`; their counters land on
        ``engine_stats`` / ``selection_stats``.  The traversal runs under
        one :class:`repro.obs.Tracer` (``discover > {hop > join,
        selection}``), the run's only clock, and its
        :class:`repro.obs.RunManifest` lands on ``run_manifest``.

        With an anytime budget (``config.budget_seconds`` /
        ``config.max_hops``, or an explicit ``deadline`` — an absolute
        ``time.monotonic`` timestamp, as passed by :meth:`augment` and the
        discovery service) the frontier expands in
        ``config.frontier_strategy`` order and the run stops gracefully
        when the budget expires, returning the best-k-so-far with
        ``budget_exhausted`` set.  A ``max_hops`` cap keeps the first
        ``max_hops`` hops of the canonical order; the wall-clock deadline
        is checked before every hop and cooperatively inside it, and a hop
        it aborted gets a ``deadline`` verdict, which ends the run and
        which ``n_paths_explored`` does not count.
        """
        config = self.config
        base = self.drg.table(base_name)
        if label_column not in base:
            raise JoinError(
                f"base table {base_name!r} has no label column {label_column!r}"
            )
        tracer = self._tracer()
        budget, frontier = self._navigation(deadline)
        faults = FaultManager("discovery")
        engine = self._engine(tracer, budget.deadline)

        verdicts: list[HopVerdict] = []
        n_hops = 0
        budget_exhausted = False
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

            # Each frontier entry carries its path's last hop as row maps
            # (the root: the sample itself, no map, its column names) and
            # the qualified features accepted along the path so far.
            frontier.push(JoinPath(base_name), (sample, None, sample.column_names))
            while frontier and not budget_exhausted:
                # The max_hops cut counts executed hops, deadline aborts
                # included; it is checked here and before every hop.
                if budget.exhausted(n_hops):
                    budget_exhausted = True
                    break
                entry = frontier.pop()
                path = entry.path
                if path.length >= config.max_path_length:
                    continue
                for edge in self._edges(path, verdicts):
                    if budget.exhausted(n_hops):
                        budget_exhausted = True
                        break
                    verdict, rows = self._hop(
                        entry, edge, base_name, engine, faults, selector, tracer
                    )
                    verdicts.append(verdict)
                    n_hops += 1
                    if verdict.kind == "deadline":
                        budget_exhausted = True
                        break
                    # Every executed hop pulls its table's UCB arm.
                    if frontier.policy is not None:
                        frontier.policy.update(edge.target, verdict.reward)
                    # Even an all-irrelevant join stays in the frontier: it
                    # may be the gateway to a relevant transitive table.
                    if verdict.ranked is not None:
                        frontier.push(
                            verdict.ranked.path,
                            rows,
                            verdict.ranked.selected_features,
                            verdict.reward,
                        )
            counts = tally(verdicts)
            if budget_exhausted:
                tracer.event(
                    "budget_exhausted",
                    hops=counts["paths_explored"],
                    frontier_unexplored=len(frontier),
                )

        engine_stats = engine.snapshot()
        selection_stats = selector.stats
        failure_report = faults.report()
        navigation = NavigationStats(
            strategy=frontier.strategy,
            budget_seconds=config.budget_seconds,
            max_hops=config.max_hops,
            hops_executed=counts["paths_explored"],
            budget_exhausted=budget_exhausted,
            frontier_unexplored=len(frontier),
            best_score=max(
                (v.ranked.score for v in verdicts if v.ranked is not None),
                default=0.0,
            ),
            arms_tracked=frontier.policy.n_arms if frontier.policy else 0,
        )
        manifest = build_manifest(
            "discovery",
            tracer=tracer,
            config=config,
            dataset=self.drg,
            seed=config.seed,
            wall_seconds=root.seconds,
            records=[engine_stats, selection_stats, failure_report, navigation],
            counters={f"discovery.{name}": n for name, n in counts.items()},
        )
        return DiscoveryResult(
            base_table=base_name,
            label_column=label_column,
            verdicts=tuple(verdicts),
            feature_selection_seconds=tracer.total_seconds("selection"),
            discovery_seconds=root.seconds,
            engine_stats=engine_stats,
            selection_stats=selection_stats,
            failure_report=failure_report,
            run_manifest=manifest,
            budget_exhausted=budget_exhausted,
            navigation=navigation,
        )

    def _edges(self, path: JoinPath, verdicts: list[HopVerdict]):
        """The edges out of ``path``'s terminal that get a hop, in order.

        Each parallel join option similarity pruning drops is logged as
        one ``similarity`` verdict just before its neighbour's kept
        options are yielded.
        """
        terminal, visited = path.terminal, set(path.nodes)
        for neighbor in self.drg.neighbors(terminal):
            if neighbor in visited:
                continue
            kept = self.drg.best_join_options(terminal, neighbor)
            verdicts.extend(
                HopVerdict("similarity", path, e, kept_weight=kept[0].weight)
                for e in self.drg.join_options(terminal, neighbor)
                if e not in kept
            )
            yield from kept

    def _hop(
        self, entry, edge, base_name, engine, faults, selector, tracer
    ) -> tuple[HopVerdict, tuple | None]:
        """Run the hop ``edge`` out of ``entry`` and decide it.

        Probe along the entry's row map, then the τ rule, streaming
        selection and the ranking score.  A deadline abort is graceful
        exhaustion, not a failure; an unfeasible join is pruning input; a
        fault is recorded on ``faults`` and skipped; a hop that contributed no
        columns is not poor join quality — it is ranked (and stays
        traversable) with ``empty`` set.  Returns ``(verdict, rows)``:
        ``rows`` is the extended path's frontier link — this hop's build
        table, its row map and the running join's column names — and None
        unless the hop was ranked.
        """
        path = entry.path
        source, row_map, names = entry.rows
        where = (path, edge)
        try:
            with tracer.span("hop", table=edge.target, key=edge.target_column):
                index, row_map = engine.probe_hop(
                    source, edge, base_name, path=path, row_map=row_map
                )
                written = index.output_names(names)
                cells = len(row_map) * len(written)
                complete = 1.0 - index.null_count(row_map) / cells if cells else 1.0
                if written and complete < self.config.tau:
                    return HopVerdict("pruned_tau", *where, completeness=complete), None
                scored = [(n, out) for n, out in written if n != index.key_column]
                matrix, codes = index.gather(row_map, [n for n, __ in scored])
        except RunBudgetExceeded:
            return HopVerdict("deadline", *where), None
        except JoinError:
            return HopVerdict("unfeasible", *where), None
        except FaultError as exc:
            faults.record(exc, base=base_name, path=path, edge=edge)
            return HopVerdict("faulted", *where), None
        candidates = [out for __, out in scored]
        with tracer.span("selection", features=len(candidates)) as span:
            batch = selector.process_batch(candidates, matrix, codes)
        if tracer.enabled and self.memo is not None:
            span.attrs["memo_hit"] = selector.memo_hit
        score = compute_ranking_score(batch.relevance_scores, batch.redundancy_scores)
        ranked = RankedPath(
            path=path.extend(edge),
            score=score,
            selected_features=entry.features + batch.accepted_names,
            relevance_scores=batch.relevance_scores,
            redundancy_scores=batch.redundancy_scores,
            completeness=complete,
            relevant_names=batch.relevant_names,
        )
        verdict = HopVerdict(
            "ranked",
            *where,
            ranked=ranked,
            reward=hop_reward(score, complete),
            empty=not written,
        )
        outs = tuple(out for __, out in written)
        return verdict, (index.build_table, row_map, (*names, *outs))

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
        every path is materialised, in ranked order, on one cached
        :class:`JoinEngine`; its counters land on
        ``AugmentationResult.engine_stats``.

        Only the fit may leave the loop.  Once every path is
        materialised, the fits that miss the train memo run in a process
        pool of a tree model (:data:`repro.ml.TREE_MODELS`) when at least
        two *distinct* ones miss and :func:`~repro.engine.parallel.reserve_workers`
        grants two workers or more; otherwise inline.  Either way the
        accuracies are collected in ranked order, which the best-path
        tie-break (first ranked path wins) reads, so the result is
        bit-identical on both routes.  With a memo, a fit whose exact
        arguments an earlier run trained on is answered from it; without
        one, paths that keep the same features along the same edges (up to
        the last hop that contributed one) train the same model, which is
        fitted once.

        A path whose materialisation raises a fault (the hop hook's) or a
        :class:`JoinError` is recorded on
        ``AugmentationResult.failure_report`` and skipped, and the
        remaining top-k paths still train.  The sample cannot hide a
        ``JoinError`` from discovery: a hop raises one only for a missing
        column, and the sample has the full table's columns.

        The training phase runs under a ``train`` span tree (``train >
        {path > hop > join, evaluate}``: every ``path``, then one
        ``evaluate`` per trained path; totals only when tracing is off)
        that is composed with the discovery phase's tree into one
        ``augment`` manifest on ``AugmentationResult.run_manifest``.

        With an anytime deadline active (``config.budget_seconds``, or
        the explicit ``deadline`` that :meth:`augment` shares across
        both phases), training stops gracefully once it expires: the
        deadline is checked in every hop and before every inline fit,
        and no pool starts once it has passed; fits already in a pool are
        awaited.  The paths trained in time still compete and the result
        is returned with ``budget_exhausted`` set.  ``config.max_hops``
        applies to discovery only.
        """
        # Lazy import: repro.ml is a heavier dependency the hop path never needs.
        from ..ml import TREE_MODELS, evaluate_accuracy, fit_key

        config = self.config
        memo = self.memo
        tracer = self._tracer()
        budget = RunBudget.start(config.budget_seconds, None, deadline=deadline)
        faults = FaultManager("training")
        engine = self._engine(tracer, budget.deadline)
        base_name, label = discovery.base_table, discovery.label_column
        base = self.drg.table(base_name)
        base_features = [n for n in base.column_names if n != label]

        trained: list[TrainedPath] = []
        tables: list[Table] = []
        # Fits by slot: the memo key, or without a memo the path's edges up
        # to the last hop that contributed a kept feature plus the feature
        # list, which fix the fit's input (the base-only fit is the empty
        # prefix).  A path whose slot an earlier path fitted (or a pool
        # runs) waits for that fit.
        futures: dict = {}
        done: dict = {}

        def held(key) -> bool:
            return key is not None and memo.holds("train", key)

        def collect(ranked, fit, key, slot) -> None:
            """One path's accuracy, in ranked order: the memo, else the fit."""
            n_features = len(fit[3])
            with tracer.span("evaluate", model=model_name, features=n_features) as span:
                accuracy = None if key is None else memo.get("train", key)
                if key is not None and tracer.enabled:
                    span.attrs["memo_hit"] = accuracy is not None
                if accuracy is None:
                    if slot not in done:
                        future = futures.get(slot)
                        done[slot] = future.result() if future else evaluate_accuracy(*fit)
                    accuracy = done[slot]
                    if key is not None:
                        memo.put("train", key, accuracy)
            trained.append(TrainedPath(ranked, accuracy, n_features))
            tables.append(fit[0])

        # Nothing left to spend: return the anytime result with zero
        # trained paths rather than starting joins that would only abort.
        budget_exhausted = budget.expired()
        top = [] if budget_exhausted else list(discovery.top(config.top_k))
        fits = []
        reserved = 0
        pool = None
        try:
            with tracer.span("train", base=base_name, model=model_name) as root:
                for ranked in top:
                    try:
                        with tracer.span("path", path=ranked.path.describe()):
                            # Full-table materialisation failing after the
                            # sampled pass succeeded is a failure, not pruning.
                            joined = faults.execute(
                                lambda: engine.materialize_path(ranked.path, base),
                                base=base_name,
                                path=ranked.path,
                            )
                    except RunBudgetExceeded:
                        # Deadline landed mid-materialisation: graceful
                        # exhaustion, not a training failure — whatever
                        # trained in time still competes below.
                        budget_exhausted = True
                        continue
                    if joined is None:
                        continue
                    table, contributions = joined
                    kept = [f for f in ranked.selected_features if f in table]
                    features = base_features + kept
                    fit = (table, label, model_name, features, config.seed)
                    if memo is None:
                        last = max((i + 1 for i, outs in enumerate(contributions)
                                    if not set(outs).isdisjoint(kept)), default=0)
                        key, slot = None, (ranked.path.edges[:last], tuple(kept))
                    else:
                        key = slot = fit_key(*fit)
                    fits.append((ranked, fit, key, slot))
                # The rule: pool a tree model's fits when two distinct ones
                # miss and two of the process's CPUs are free (DESIGN.md §11);
                # reserve_workers grants none for fewer than two misses.
                misses = {slot: fit for __, fit, key, slot in fits if not held(key)}
                if model_name in TREE_MODELS and not budget.expired():
                    reserved = parallel.reserve_workers(len(misses))
                if reserved:
                    pool = parallel.fit_pool(reserved)
                    for slot, fit in misses.items():
                        futures[slot] = pool.submit(evaluate_accuracy, *fit)
                if tracer.enabled:
                    root.attrs["workers"] = max(reserved, 1)
                for ranked, fit, key, slot in fits:
                    if budget.expired() and not (slot in futures or slot in done or held(key)):
                        # No inline fit starts past the deadline.
                        budget_exhausted = True
                        break
                    collect(ranked, fit, key, slot)
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            parallel.release_workers(reserved)

        best = None
        augmented = None
        if trained:
            best_idx = max(range(len(trained)), key=lambda i: trained[i].accuracy)
            best = trained[best_idx]
            keep = (
                base_features
                + [f for f in best.ranked.selected_features if f in tables[best_idx]]
                + [label]
            )
            augmented = tables[best_idx].select(keep)

        total_seconds = discovery.discovery_seconds + root.seconds
        engine_stats = engine.snapshot()
        failure_report = faults.report()
        budget_exhausted = budget_exhausted or discovery.budget_exhausted
        gauges = {"parallel.workers_used": max(reserved, 1)}
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

