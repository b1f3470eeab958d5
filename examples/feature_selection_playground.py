"""Feature-selection metric playground (the Section V empirical study).

Generates a synthetic dataset with known informative / redundant / noise
features, then shows how each relevance metric ranks them and how each
redundancy method reacts to a near-duplicate feature — the analysis that
led the paper to pick Spearman + MRMR.

Run:  python examples/feature_selection_playground.py
"""

import numpy as np

from repro.bench import print_table
from repro.datasets import make_classification
from repro.selection import (
    REDUNDANCY_METHODS,
    SelectionCodeCache,
    batch_redundancy_scores,
    batch_relevance_scores,
    greedy_select,
)


def main() -> None:
    flat = make_classification(
        n_rows=1500, n_informative=4, n_redundant=2, n_noise=4, class_sep=1.8, seed=3
    )
    names = list(flat.features)
    X = np.column_stack([flat.features[n] for n in names])
    y = flat.label.astype(float)

    print("ground truth, weakest to strongest:", ", ".join(flat.relevance_order))
    print()

    rows = []
    for metric in ("information_gain", "symmetrical_uncertainty", "pearson", "spearman", "relief"):
        scores = batch_relevance_scores(X, y, metric=metric)
        ranked = [names[j] for j in np.argsort(-scores)]
        rows.append({"metric": metric, "top_3": ", ".join(ranked[:3])})
    print_table(rows, title="Relevance metrics: top-3 ranked features")
    print()

    # A near-duplicate of the strongest feature: every redundancy method
    # should penalise it once the original is in the selected set.  The
    # kernel scores a candidate against a cache of the selected features;
    # a score that is not positive comes back as a bound (some value <= 0).
    strongest = flat.relevance_order[-1]
    original = flat.features[strongest]
    duplicate = original + np.random.default_rng(0).normal(0, 0.01, len(original))
    candidate = duplicate.reshape(-1, 1)
    rows = []
    for method in REDUNDANCY_METHODS:
        cache = SelectionCodeCache(y)
        fresh = float(batch_redundancy_scores(candidate, cache, method)[0])
        cache.add(original)
        against = float(batch_redundancy_scores(candidate, cache, method)[0])
        rows.append(
            {
                "method": method,
                "score_alone": round(fresh, 4),
                "score_vs_original": round(against, 4),
                "penalised": against < fresh,
                "accepted": against > 0.0,
            }
        )
    print_table(rows, title=f"Redundancy methods vs a duplicate of {strongest!r}")
    print()

    # Greedy forward selection stops at k or at the first step whose best
    # score is <= 0, so it may pick fewer than k features.
    picked = greedy_select(X, y, k=4, method="mrmr")
    print("greedy MRMR selection order:", ", ".join(names[j] for j in picked))


if __name__ == "__main__":
    main()
