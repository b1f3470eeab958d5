"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

The one entry point per paper artefact.  Each registry entry holds the
artefact's title, its file under ``benchmarks/results/``, the runner and
the paper-shape claims its rows must satisfy::

    python -m repro.bench                # list experiments and result files
    python -m repro.bench table2
    python -m repro.bench fig4 --full --seed 7
    python -m repro.bench eq3 --out benchmarks/results/eq3_joinall.txt

The table is printed (and written to ``--out``) before the claims are
checked; every claim that fails is printed to stderr by name and the
command exits 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from math import factorial
from pathlib import Path
from typing import Callable

from .experiments import (
    fig3a_relevance_comparison,
    fig3b_redundancy_comparison,
    fig4_benchmark_setting,
    fig5_nontree_benchmark,
    fig6_datalake_setting,
    fig7_nontree_datalake,
    fig8_kappa_sensitivity,
    fig8_tau_sensitivity,
    fig9_ablation,
    headline_summary,
    joinall_explosion,
    matcher_comparison,
    streaming_selector_comparison,
    multigraph_ablation,
    table2_overview,
    traversal_ablation,
)
from .harness import BenchProfile, average_by_method, compare_methods
from .reporting import format_table


@dataclass(frozen=True)
class Artefact:
    """One paper table or figure: how to run, render and check it."""

    title: str
    #: File stem under ``benchmarks/results/`` holding the committed table.
    results_file: str
    run: Callable[[BenchProfile], list[dict]]
    #: Paper-shape claims over the rows: ``{claim: holds}``.
    shape: Callable[[list[dict]], dict[str, bool]]
    #: ``(value column, title)`` of each per-method mean table rendered
    #: below the main one.
    means: tuple[tuple[str, str], ...] = ()

    def render(self, rows: list[dict]) -> str:
        tables = [format_table(rows, title=self.title)]
        tables += [
            format_table(average_by_method(rows, value), title=title)
            for value, title in self.means
        ]
        return "\n\n".join(tables)


# -- paper-shape claims: {claim: holds} over an artefact's rows ---------------


def _groups(rows: list[dict], key: str) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row[key], []).append(row)
    return groups


def _mean(rows: list[dict], key: str) -> float:
    return sum(r[key] for r in rows) / len(rows)


def _means(rows: list[dict], value: str) -> dict[str, float]:
    return {r["method"]: r[f"mean_{value}"] for r in average_by_method(rows, value)}


def _fig3a_shape(rows):
    secs = {r["metric"]: r["mean_selection_seconds"] for r in rows}
    cheaper_mi = min(secs["information_gain"], secs["symmetrical_uncertainty"])
    best = max(rows, key=lambda r: r["mean_accuracy"])["metric"]
    return {
        "pearson time <= 3 x min(information_gain, symmetrical_uncertainty) time":
            secs["pearson"] <= cheaper_mi * 3,
        "most accurate metric in (spearman, pearson)": best in ("spearman", "pearson"),
    }


def _fig3b_shape(rows):
    secs = {r["method"]: r["mean_selection_seconds"] for r in rows}
    slowest_conditional = max(secs["cife"], secs["jmi"], secs["cmim"])
    return {
        "max(cife, jmi, cmim) time > min(mifs, mrmr) time":
            slowest_conditional > min(secs["mifs"], secs["mrmr"]),
    }


def _fig4_shape(rows):
    acc, fs = _means(rows, "accuracy"), _means(rows, "fs_seconds")
    return {
        "AutoFeat accuracy > BASE": acc["AutoFeat"] > acc["BASE"],
        "AutoFeat accuracy >= ARDA - 0.02": acc["AutoFeat"] >= acc["ARDA"] - 0.02,
        "AutoFeat fs_seconds < ARDA": fs["AutoFeat"] < fs["ARDA"],
        "AutoFeat fs_seconds < MAB": fs["AutoFeat"] < fs["MAB"],
    }


def _fig5_shape(rows):
    acc = _means(rows, "accuracy")
    return {"AutoFeat accuracy >= BASE - 0.02": acc["AutoFeat"] >= acc["BASE"] - 0.02}


def _fig6_shape(rows):
    acc, fs = _means(rows, "accuracy"), _means(rows, "fs_seconds")
    return {
        "AutoFeat accuracy > BASE": acc["AutoFeat"] > acc["BASE"],
        "AutoFeat accuracy >= ARDA - 0.02": acc["AutoFeat"] >= acc["ARDA"] - 0.02,
        "AutoFeat accuracy >= MAB - 0.02": acc["AutoFeat"] >= acc["MAB"] - 0.02,
        "AutoFeat fs_seconds < MAB": fs["AutoFeat"] < fs["MAB"],
    }


def _fig8b_shape(rows):
    school = {r["tau"]: r["accuracy"] for r in rows if r["dataset"] == "school"}
    return {
        "school accuracy at tau 1.0 <= at tau 0.65":
            {1.0, 0.65} <= school.keys() and school[1.0] <= school[0.65],
    }


def _fig9_shape(rows):
    by = _groups(rows, "variant")
    best = max(_mean(v, "accuracy") for v in by.values())
    return {
        "spearman-jmi fs_seconds > 0.8 x spearman-mrmr":
            _mean(by["spearman-jmi"], "fs_seconds")
            > _mean(by["spearman-mrmr"], "fs_seconds") * 0.8,
        "spearman-mrmr accuracy >= best variant - 0.05":
            _mean(by["spearman-mrmr"], "accuracy") >= best - 0.05,
    }


def _traversal_shape(rows):
    by = _groups(rows, "traversal")
    return {
        "bfs mean accuracy >= dfs - 0.05":
            _mean(by["bfs"], "accuracy") >= _mean(by["dfs"], "accuracy") - 0.05,
    }


def _eq3_shape(rows):
    count = {(r["dataset"], r["setting"]): r["joinall_orderings"] for r in rows}
    return {
        "school benchmark orderings >= 10!":
            count[("school", "benchmark")] >= factorial(10),
        "credit benchmark orderings < 10 000": count[("credit", "benchmark")] < 10_000,
    }


def _matchers_shape(rows):
    by = _groups(rows, "matcher")
    claims = {
        f"{name} pair_recall >= 0.5 on every dataset":
            min(r["pair_recall"] for r in by[name]) >= 0.5
        for name in ("coma", "lazo")
    }
    claims["every accuracy >= 0"] = all(r["accuracy"] >= 0.0 for r in rows)
    return claims


def _streaming_shape(rows):
    by = _groups(rows, "strategy")
    best = max(_mean(v, "accuracy") for v in by.values())
    return {
        "every strategy selects >= 1 feature": all(r["n_selected"] >= 1 for r in rows),
        "two-stage (AutoFeat) accuracy >= best strategy - 0.08":
            _mean(by["two-stage (AutoFeat)"], "accuracy") >= best - 0.08,
    }


def _headline_shape(rows):
    by = {r["method"]: r for r in rows}
    return {
        "AutoFeat speedup over ARDA > 3": by["ARDA"]["autofeat_speedup"] > 3,
        "AutoFeat speedup over MAB > 3": by["MAB"]["autofeat_speedup"] > 3,
        "AutoFeat accuracy delta over BASE > 0.05":
            by["BASE"]["autofeat_acc_delta"] > 0.05,
    }


def _run_headline(profile: BenchProfile) -> list[dict]:
    rows = compare_methods(profile, "benchmark")
    rows += compare_methods(profile, "datalake")
    return headline_summary(rows)


EXPERIMENTS = {
    "table2": Artefact(
        "Table II: dataset overview", "table2_datasets",
        lambda p: table2_overview(),
        lambda rows: {"8 datasets": len(rows) == 8},
    ),
    "fig3a": Artefact(
        "Figure 3a: relevance metric comparison", "fig3a_relevance",
        lambda p: fig3a_relevance_comparison(seed=p.seed), _fig3a_shape,
    ),
    "fig3b": Artefact(
        "Figure 3b: redundancy method comparison", "fig3b_redundancy",
        lambda p: fig3b_redundancy_comparison(seed=p.seed), _fig3b_shape,
    ),
    "fig4": Artefact(
        "Figure 4: benchmark setting (tree models)", "fig4_benchmark_setting",
        fig4_benchmark_setting, _fig4_shape,
        means=(
            ("accuracy", "Figure 4: mean accuracy per method"),
            ("fs_seconds", "Figure 4: mean feature-selection seconds per method"),
        ),
    ),
    "fig5": Artefact(
        "Figure 5: benchmark setting (KNN / logistic-L1)", "fig5_nontree_benchmark",
        fig5_nontree_benchmark, _fig5_shape,
    ),
    "fig6": Artefact(
        "Figure 6: data-lake setting (tree models)", "fig6_datalake_setting",
        fig6_datalake_setting, _fig6_shape,
        means=(("accuracy", "Figure 6: mean accuracy per method"),),
    ),
    "fig7": Artefact(
        "Figure 7: data-lake setting (KNN / logistic-L1)", "fig7_nontree_datalake",
        fig7_nontree_datalake,
        lambda rows: {"AutoFeat has rows": "AutoFeat" in _groups(rows, "method")},
    ),
    "fig8a": Artefact(
        "Figure 8a: sensitivity to kappa", "fig8a_kappa",
        lambda p: fig8_kappa_sensitivity(seed=p.seed),
        lambda rows: {
            "largest-kappa accuracy >= smallest-kappa - 0.02":
                rows[-1]["mean_accuracy"] >= rows[0]["mean_accuracy"] - 0.02,
        },
    ),
    "fig8b": Artefact(
        "Figure 8b-d: sensitivity to tau (per dataset)", "fig8bcd_tau",
        lambda p: fig8_tau_sensitivity(seed=p.seed), _fig8b_shape,
    ),
    "fig9": Artefact(
        "Figure 9: ablation study", "fig9_ablation",
        lambda p: fig9_ablation(seed=p.seed), _fig9_shape,
    ),
    "eq3": Artefact(
        "Equation 3: JoinAll ordering counts", "eq3_joinall",
        lambda p: joinall_explosion(), _eq3_shape,
    ),
    "traversal": Artefact(
        "Ablation: BFS vs DFS traversal", "ablation_traversal",
        lambda p: traversal_ablation(seed=p.seed), _traversal_shape,
    ),
    "multigraph": Artefact(
        "Ablation: multigraph vs simple-graph DRG", "ablation_multigraph",
        lambda p: multigraph_ablation(seed=p.seed),
        lambda rows: {
            "multigraph edges >= simple-graph edges":
                sum(r["edges"] for r in rows if r["drg"] == "multigraph")
                >= sum(r["edges"] for r in rows if r["drg"] == "simple"),
        },
    ),
    "matchers": Artefact(
        "Discovery matcher comparison (data-lake DRG)", "matcher_comparison",
        lambda p: matcher_comparison(seed=p.seed), _matchers_shape,
    ),
    "streaming": Artefact(
        "Streaming selector comparison", "streaming_selectors",
        lambda p: streaming_selector_comparison(seed=p.seed), _streaming_shape,
    ),
    "headline": Artefact(
        "Headline: per-method means, AutoFeat speedup and accuracy delta",
        "headline_summary", _run_headline, _headline_shape,
    ),
}


def _list_experiments() -> str:
    rows = [
        {
            "id": key,
            "artefact": artefact.title,
            "results": f"benchmarks/results/{artefact.results_file}.txt",
        }
        for key, artefact in sorted(EXPERIMENTS.items())
    ]
    return format_table(rows, title="available experiments")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate one paper table/figure from the AutoFeat reproduction.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        choices=sorted(EXPERIMENTS) + ["list"],
        help="experiment id (omit or 'list' to enumerate)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the full Table II matrix instead of the quick profile",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="determinism seed for the run (default: the profile's, 1)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the rendered table to this file (`list` names "
        "each experiment's file under benchmarks/results/)",
    )
    args = parser.parse_args(argv)

    if args.experiment in (None, "list"):
        print(_list_experiments())
        return 0

    profile = BenchProfile.full() if args.full else BenchProfile.quick()
    if args.seed is not None:
        profile = replace(profile, seed=args.seed)
    artefact = EXPERIMENTS[args.experiment]
    rows = artefact.run(profile)
    text = artefact.render(rows)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    try:
        print(text)
        if args.out is not None:
            print(f"table -> {args.out}")
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error for a CLI.
        pass
    failed = [claim for claim, holds in artefact.shape(rows).items() if not holds]
    for claim in failed:
        print(f"{args.experiment}: shape check failed: {claim}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
