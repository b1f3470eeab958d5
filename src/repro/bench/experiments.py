"""One function per paper table/figure (the per-experiment index of DESIGN.md).

Each function returns plain dict rows ready for
:func:`repro.bench.reporting.format_table`; ``python -m repro.bench``
renders them and checks their paper shape.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..core import AutoFeat, AutoFeatConfig
from ..datasets import DATASETS, LakeBundle, build_dataset
from ..graph import join_all_path_count
from ..ml import evaluate_accuracy
from ..selection import batch_relevance_scores, greedy_select
from ..dataframe import Table
from .harness import BenchProfile, build_setting, compare_methods

__all__ = [
    "table2_overview",
    "fig3a_relevance_comparison",
    "fig3b_redundancy_comparison",
    "fig4_benchmark_setting",
    "fig5_nontree_benchmark",
    "fig6_datalake_setting",
    "fig7_nontree_datalake",
    "fig8_kappa_sensitivity",
    "fig8_tau_sensitivity",
    "fig9_ablation",
    "joinall_explosion",
    "headline_summary",
    "traversal_ablation",
    "multigraph_ablation",
    "matcher_comparison",
    "streaming_selector_comparison",
]

RELEVANCE_MENU = (
    "information_gain",
    "symmetrical_uncertainty",
    "pearson",
    "spearman",
    "relief",
)
REDUNDANCY_MENU = ("mifs", "mrmr", "cife", "jmi", "cmim")
ABLATION_MENU = (
    "spearman-mrmr",
    "spearman-jmi",
    "pearson-mrmr",
    "pearson-jmi",
    "spearman-only",
    "mrmr-only",
)


# -- Table II -------------------------------------------------------------------


def table2_overview() -> list[dict]:
    """Dataset overview: paper shape vs the generated synthetic twin."""
    rows = []
    for name, spec in DATASETS.items():
        bundle = build_dataset(name)
        rows.append(
            {
                "dataset": name,
                "paper_rows": spec.paper_rows,
                "rows": bundle.base_table.n_rows,
                "paper_joinable": spec.paper_joinable_tables,
                "joinable": bundle.n_tables - 1,
                "paper_features": spec.paper_features,
                "features": bundle.total_features,
                "paper_best_acc": spec.paper_best_accuracy,
            }
        )
    return rows


# -- Figure 3: feature-selection metric menus -----------------------------------


def _flat_as_table(name: str) -> tuple[Table, str]:
    flat = DATASETS[name].flat()
    columns = dict(flat.features)
    columns["label"] = flat.label
    return Table(columns, name=name), "label"


def fig3a_relevance_comparison(
    datasets: tuple[str, ...] = ("credit", "eyemove", "steel", "jannis", "miniboone", "school"),
    kappa: int = 15,
    model: str = "lightgbm",
    seed: int = 1,
) -> list[dict]:
    """Relevance metrics: aggregated accuracy and selection runtime.

    Protocol of Section V-B: score all features against the label, keep the
    top-κ, train the model, report accuracy and the scoring time.  Scores
    come from the pipeline's :func:`~repro.selection.batch_relevance_scores`
    (the vectorised kernel for Spearman).
    """
    totals: dict[str, dict[str, list[float]]] = {
        m: {"acc": [], "secs": []} for m in RELEVANCE_MENU
    }
    for name in datasets:
        table, label_col = _flat_as_table(name)
        features = [c for c in table.column_names if c != label_col]
        X = table.numeric_matrix(features)
        y = table.column(label_col).to_float()
        for metric in RELEVANCE_MENU:
            started = time.perf_counter()
            scores = batch_relevance_scores(X, y, metric=metric, seed=seed)
            elapsed = time.perf_counter() - started
            order = np.argsort(-scores, kind="stable")[:kappa]
            kept = [features[j] for j in order]
            acc = evaluate_accuracy(table, label_col, model, kept, seed=seed)
            totals[metric]["acc"].append(acc)
            totals[metric]["secs"].append(elapsed)
    return [
        {
            "metric": metric,
            "mean_accuracy": float(np.mean(v["acc"])),
            "mean_selection_seconds": float(np.mean(v["secs"])),
        }
        for metric, v in totals.items()
    ]


def fig3b_redundancy_comparison(
    datasets: tuple[str, ...] = ("credit", "eyemove", "steel"),
    kappa: int = 10,
    model: str = "lightgbm",
    seed: int = 1,
) -> list[dict]:
    """Redundancy methods: greedy-forward selection accuracy and runtime.

    :func:`~repro.selection.greedy_select` runs the pipeline's redundancy
    kernel; it stops at κ or at the first step whose best J is ≤ 0, so a
    method may keep fewer than κ features.
    """
    totals: dict[str, dict[str, list[float]]] = {
        m: {"acc": [], "secs": []} for m in REDUNDANCY_MENU
    }
    for name in datasets:
        table, label_col = _flat_as_table(name)
        features = [c for c in table.column_names if c != label_col]
        X = table.numeric_matrix(features)
        y = table.column(label_col).to_float()
        for method in REDUNDANCY_MENU:
            started = time.perf_counter()
            picked = greedy_select(X, y, k=kappa, method=method)
            elapsed = time.perf_counter() - started
            kept = [features[j] for j in picked] or features[:1]
            acc = evaluate_accuracy(table, label_col, model, kept, seed=seed)
            totals[method]["acc"].append(acc)
            totals[method]["secs"].append(elapsed)
    return [
        {
            "method": method,
            "mean_accuracy": float(np.mean(v["acc"])),
            "mean_selection_seconds": float(np.mean(v["secs"])),
        }
        for method, v in totals.items()
    ]


# -- Figures 4-7: the main comparisons -------------------------------------------


NONTREE_MODELS = ("knn", "linear_l1")


def fig4_benchmark_setting(profile: BenchProfile | None = None) -> list[dict]:
    """Benchmark setting, tree models: runtime split + accuracy per method."""
    return compare_methods(profile or BenchProfile.quick(), "benchmark")


def fig5_nontree_benchmark(profile: BenchProfile | None = None) -> list[dict]:
    """Benchmark setting with KNN and logistic-L1."""
    profile = replace(profile or BenchProfile.quick(), models=NONTREE_MODELS)
    return compare_methods(profile, "benchmark")


def fig6_datalake_setting(profile: BenchProfile | None = None) -> list[dict]:
    """Data-lake setting (COMA edges at 0.55), tree models."""
    return compare_methods(profile or BenchProfile.quick(), "datalake")


def fig7_nontree_datalake(profile: BenchProfile | None = None) -> list[dict]:
    """Data-lake setting with KNN and logistic-L1."""
    profile = replace(profile or BenchProfile.quick(), models=NONTREE_MODELS)
    return compare_methods(profile, "datalake")


# -- Figure 8: sensitivity ---------------------------------------------------------


def _autofeat_point(
    bundle: LakeBundle, config: AutoFeatConfig, model: str = "lightgbm"
) -> tuple[float, float]:
    drg = build_setting(bundle, "benchmark")
    result = AutoFeat(drg, config).augment(
        bundle.base_name, bundle.label_column, model
    )
    return result.accuracy, result.discovery.feature_selection_seconds


def fig8_kappa_sensitivity(
    datasets: tuple[str, ...] = ("credit", "steel"),
    kappas: tuple[int, ...] = (2, 4, 6, 8, 10, 15, 20),
    seed: int = 1,
) -> list[dict]:
    """Accuracy and selection time as κ sweeps (Figure 8a)."""
    rows = []
    bundles = {name: build_dataset(name) for name in datasets}
    for kappa in kappas:
        accs, secs = [], []
        for bundle in bundles.values():
            acc, sec = _autofeat_point(
                bundle, AutoFeatConfig(kappa=kappa, seed=seed)
            )
            accs.append(acc)
            secs.append(sec)
        rows.append(
            {
                "kappa": kappa,
                "mean_accuracy": float(np.mean(accs)),
                "mean_fs_seconds": float(np.mean(secs)),
            }
        )
    return rows


def fig8_tau_sensitivity(
    datasets: tuple[str, ...] = ("credit", "steel", "school"),
    taus: tuple[float, ...] = (0.05, 0.2, 0.4, 0.6, 0.65, 0.8, 0.9, 1.0),
    seed: int = 1,
) -> list[dict]:
    """Accuracy and selection time as τ sweeps, per dataset (Figure 8b-d)."""
    rows = []
    bundles = {name: build_dataset(name) for name in datasets}
    for tau in taus:
        for name, bundle in bundles.items():
            acc, sec = _autofeat_point(bundle, AutoFeatConfig(tau=tau, seed=seed))
            rows.append(
                {
                    "tau": tau,
                    "dataset": name,
                    "accuracy": acc,
                    "fs_seconds": sec,
                }
            )
    return rows


# -- Figure 9: ablation ---------------------------------------------------------------


def fig9_ablation(
    datasets: tuple[str, ...] = ("credit", "eyemove", "steel"),
    model: str = "lightgbm",
    seed: int = 1,
) -> list[dict]:
    """AutoFeat variants: {Spearman,Pearson} x {MRMR,JMI} plus single-stage."""
    rows = []
    for name in datasets:
        bundle = build_dataset(name)
        drg = build_setting(bundle, "benchmark")
        for ablation in ABLATION_MENU:
            config = AutoFeatConfig.ablation(ablation, seed=seed)
            result = AutoFeat(drg, config).augment(
                bundle.base_name, bundle.label_column, model
            )
            rows.append(
                {
                    "dataset": name,
                    "variant": ablation,
                    "accuracy": result.accuracy,
                    "fs_seconds": result.discovery.feature_selection_seconds,
                    "total_seconds": result.total_seconds,
                }
            )
    return rows


# -- Equation 3 and the headline summary ---------------------------------------------


def joinall_explosion(
    datasets: tuple[str, ...] = ("credit", "eyemove", "steel", "school"),
) -> list[dict]:
    """Number of JoinAll orderings (Eq. 3) per dataset and setting."""
    rows = []
    for name in datasets:
        bundle = build_dataset(name)
        for setting in ("benchmark", "datalake"):
            drg = build_setting(bundle, setting)
            count = join_all_path_count(drg.graph, bundle.base_name)
            rows.append(
                {
                    "dataset": name,
                    "setting": setting,
                    "joinall_orderings": count,
                    "edges": drg.n_relationships,
                }
            )
    return rows


def headline_summary(rows: list[dict]) -> list[dict]:
    """Aggregate comparison rows into the paper's headline claims.

    Produces per-method mean accuracy, mean feature-selection time and the
    speedup of AutoFeat's selection relative to each model-in-the-loop
    method — the "5x-44x faster, +16% accuracy" shape.
    """
    buckets: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        if row.get("accuracy") is None:
            continue
        bucket = buckets.setdefault(row["method"], {"acc": [], "fs": []})
        bucket["acc"].append(float(row["accuracy"]))
        bucket["fs"].append(float(row["fs_seconds"]))
    autofeat_fs = np.mean(buckets["AutoFeat"]["fs"]) if "AutoFeat" in buckets else None
    autofeat_acc = (
        np.mean(buckets["AutoFeat"]["acc"]) if "AutoFeat" in buckets else None
    )
    out = []
    for method, bucket in buckets.items():
        mean_fs = float(np.mean(bucket["fs"]))
        mean_acc = float(np.mean(bucket["acc"]))
        row = {
            "method": method,
            "mean_accuracy": mean_acc,
            "mean_fs_seconds": mean_fs,
        }
        if autofeat_fs and autofeat_fs > 0:
            row["autofeat_speedup"] = mean_fs / autofeat_fs
        if autofeat_acc is not None:
            row["autofeat_acc_delta"] = autofeat_acc - mean_acc
        out.append(row)
    return out


# -- Extra ablations called out in DESIGN.md -------------------------------------------


def streaming_selector_comparison(
    datasets: tuple[str, ...] = ("credit", "eyemove"),
    model: str = "lightgbm",
    seed: int = 1,
) -> list[dict]:
    """Batch two-stage pipeline vs fully-online selectors (future work).

    Streams every feature of each flat dataset (weakest first, mimicking
    the shallow-to-deep arrival order of join batches) through AutoFeat's
    Spearman+MRMR pipeline, alpha-investing, and fast-OSFS, then trains the
    model on each selector's accepted set.
    """
    from ..core import AutoFeatConfig, StreamingFeatureSelector
    from ..selection import AlphaInvestingSelector, FastOSFSSelector

    rows = []
    for name in datasets:
        flat = DATASETS[name].flat()
        table, label_col = _flat_as_table(name)
        y = table.column(label_col).to_float()
        arrival = list(flat.relevance_order)  # weakest first

        def run_two_stage():
            selector = StreamingFeatureSelector(AutoFeatConfig(seed=seed), y)
            for feature in arrival:
                selector.process_batch(
                    [feature], flat.features[feature].reshape(-1, 1)
                )
            return selector.selected_names

        def run_online(selector):
            selector.start(y)
            for feature in arrival:
                selector.offer(feature, flat.features[feature])
            return selector.selected_names

        strategies = {
            "two-stage (AutoFeat)": run_two_stage,
            "alpha-investing": lambda: run_online(AlphaInvestingSelector()),
            "fast-osfs": lambda: run_online(FastOSFSSelector()),
        }
        for strategy, runner in strategies.items():
            started = time.perf_counter()
            selected = runner()
            elapsed = time.perf_counter() - started
            kept = selected or arrival[:1]
            acc = evaluate_accuracy(table, label_col, model, kept, seed=seed)
            rows.append(
                {
                    "dataset": name,
                    "strategy": strategy,
                    "n_selected": len(selected),
                    "accuracy": acc,
                    "selection_seconds": elapsed,
                }
            )
    return rows


def matcher_comparison(
    datasets: tuple[str, ...] = ("credit", "eyemove"),
    model: str = "lightgbm",
    seed: int = 1,
) -> list[dict]:
    """Swap the discovery algorithm under the DRG (paper: "DRG construction
    is independent of the dataset discovery algorithm").

    Compares COMA (composite), Lazo (MinHash-LSH containment) and the
    distribution matcher as lake builders: edge precision/recall against
    the known constraints, plus AutoFeat's downstream accuracy on each.
    """
    from ..datasets import build_dataset as _build
    from ..datasets.lake import rename_for_lake
    from ..discovery import ComaMatcher, DistributionMatcher, LazoMatcher
    from ..graph import DatasetRelationGraph

    matchers = {
        "coma": lambda: ComaMatcher(),
        "lazo": lambda: LazoMatcher(),
        "distribution": lambda: DistributionMatcher(),
    }
    rows = []
    for name in datasets:
        bundle = _build(name)
        tables = rename_for_lake(bundle)
        truth_pairs = {
            frozenset((c.table_a, c.table_b)) for c in bundle.constraints
        }
        for matcher_name, factory in matchers.items():
            drg = DatasetRelationGraph.from_discovery(
                tables, factory(), threshold=0.55
            )
            found_pairs = {
                frozenset((e.node_a, e.node_b)) for e in drg.graph.all_edges()
            }
            hits = len(found_pairs & truth_pairs)
            precision = hits / len(found_pairs) if found_pairs else 0.0
            recall = hits / len(truth_pairs) if truth_pairs else 0.0
            result = AutoFeat(drg, AutoFeatConfig(seed=seed)).augment(
                bundle.base_name, bundle.label_column, model
            )
            rows.append(
                {
                    "dataset": name,
                    "matcher": matcher_name,
                    "edges": drg.n_relationships,
                    "pair_precision": round(precision, 4),
                    "pair_recall": round(recall, 4),
                    "accuracy": result.accuracy,
                    "fs_seconds": result.discovery.feature_selection_seconds,
                }
            )
    return rows


def traversal_ablation(
    datasets: tuple[str, ...] = ("credit", "steel"),
    model: str = "lightgbm",
    seed: int = 1,
) -> list[dict]:
    """BFS vs DFS traversal of the DRG (Section IV-A's design argument)."""
    rows = []
    for name in datasets:
        bundle = build_dataset(name)
        drg = build_setting(bundle, "benchmark")
        for traversal in ("bfs", "dfs"):
            config = AutoFeatConfig(traversal=traversal, seed=seed)
            result = AutoFeat(drg, config).augment(
                bundle.base_name, bundle.label_column, model
            )
            rows.append(
                {
                    "dataset": name,
                    "traversal": traversal,
                    "accuracy": result.accuracy,
                    "fs_seconds": result.discovery.feature_selection_seconds,
                }
            )
    return rows


def multigraph_ablation(
    datasets: tuple[str, ...] = ("credit", "eyemove"),
    model: str = "lightgbm",
    seed: int = 1,
) -> list[dict]:
    """Multigraph DRG vs collapsed simple graph (Table I's distinction)."""
    rows = []
    for name in datasets:
        bundle = build_dataset(name)
        drg = build_setting(bundle, "datalake")
        for variant, graph in (("multigraph", drg), ("simple", drg.with_simple_graph())):
            result = AutoFeat(graph, AutoFeatConfig(seed=seed)).augment(
                bundle.base_name, bundle.label_column, model
            )
            rows.append(
                {
                    "dataset": name,
                    "drg": variant,
                    "edges": graph.n_relationships,
                    "accuracy": result.accuracy,
                    "fs_seconds": result.discovery.feature_selection_seconds,
                }
            )
    return rows
