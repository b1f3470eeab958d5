"""The eight evaluation datasets of Table II, as scaled synthetic lakes.

Each spec records the *paper* shape (rows, joinable tables, total
features, best published accuracy) and the *scaled* shape we generate —
row counts are capped so the full benchmark matrix runs on one machine,
while the number of joinable tables and the feature spread follow Table II
exactly (feature totals are scaled down for the two very wide datasets,
school and bioresponse).

Every generated lake plants its strongest features in the deepest
satellites, mirroring the empirical finding that "the most relevant
features reside via transitive joins" (Section VII-C1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DatasetError
from .generators import FlatDataset, make_classification
from .splitter import LakeBundle, SplitPlan, split_into_lake

__all__ = ["DatasetSpec", "DATASETS", "build_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """One Table II row plus the parameters of its scaled synthetic twin."""

    name: str
    paper_rows: int
    paper_joinable_tables: int
    paper_features: int
    paper_best_accuracy: float
    rows: int
    n_satellites: int
    n_features: int
    n_base_features: int
    max_depth: int
    class_sep: float
    n_categorical: int = 2
    match_rate_range: tuple[float, float] = (0.8, 1.0)
    seed: int = 0

    def plan(self) -> SplitPlan:
        return SplitPlan(
            name=self.name,
            n_satellites=self.n_satellites,
            n_base_features=self.n_base_features,
            max_depth=self.max_depth,
            deep_signal=True,
            match_rate_range=self.match_rate_range,
            n_shared_categories=max(2, self.n_satellites // 3),
            seed=self.seed,
        )

    def flat(self) -> FlatDataset:
        n_informative = max(2, int(0.4 * self.n_features))
        n_redundant = max(1, int(0.2 * self.n_features))
        n_noise = self.n_features - n_informative - n_redundant
        return make_classification(
            n_rows=self.rows,
            n_informative=n_informative,
            n_redundant=n_redundant,
            n_noise=n_noise,
            class_sep=self.class_sep,
            n_categorical=min(self.n_categorical, n_informative),
            seed=self.seed,
        )


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec(
            name="credit",
            paper_rows=1001, paper_joinable_tables=5, paper_features=21,
            paper_best_accuracy=0.99,
            rows=1000, n_satellites=5, n_features=21, n_base_features=4,
            max_depth=2, class_sep=2.2, seed=11,
        ),
        DatasetSpec(
            name="eyemove",
            paper_rows=7609, paper_joinable_tables=6, paper_features=24,
            paper_best_accuracy=0.894,
            rows=1500, n_satellites=6, n_features=24, n_base_features=4,
            max_depth=2, class_sep=1.4, seed=12,
        ),
        DatasetSpec(
            name="covertype",
            paper_rows=423682, paper_joinable_tables=12, paper_features=21,
            paper_best_accuracy=0.99,
            rows=2000, n_satellites=12, n_features=21, n_base_features=3,
            max_depth=3, class_sep=2.4, seed=13,
        ),
        DatasetSpec(
            name="jannis",
            paper_rows=57581, paper_joinable_tables=12, paper_features=55,
            paper_best_accuracy=0.875,
            rows=1500, n_satellites=12, n_features=55, n_base_features=6,
            max_depth=3, class_sep=1.2, seed=14,
        ),
        DatasetSpec(
            name="miniboone",
            paper_rows=73000, paper_joinable_tables=15, paper_features=51,
            paper_best_accuracy=0.9465,
            rows=1500, n_satellites=15, n_features=51, n_base_features=5,
            max_depth=3, class_sep=1.8, seed=15,
        ),
        DatasetSpec(
            name="steel",
            paper_rows=1943, paper_joinable_tables=15, paper_features=34,
            paper_best_accuracy=1.0,
            rows=1200, n_satellites=15, n_features=34, n_base_features=4,
            max_depth=3, class_sep=2.6, seed=16,
        ),
        DatasetSpec(
            name="school",
            paper_rows=1775, paper_joinable_tables=16, paper_features=731,
            paper_best_accuracy=0.831,
            # The paper notes school "follows a star schema" — max_depth=1
            # makes JoinAll's ordering count hit the infeasible regime (16!)
            # exactly as the paper reports for this dataset.
            rows=1000, n_satellites=16, n_features=96, n_base_features=8,
            max_depth=1, class_sep=1.0, match_rate_range=(0.7, 0.95), seed=17,
        ),
        DatasetSpec(
            name="bioresponse",
            paper_rows=3435, paper_joinable_tables=40, paper_features=420,
            paper_best_accuracy=0.885,
            rows=1000, n_satellites=40, n_features=120, n_base_features=8,
            max_depth=3, class_sep=1.3, seed=18,
        ),
    )
}


def build_dataset(name: str) -> LakeBundle:
    """Generate the scaled synthetic lake for one Table II dataset."""
    if name not in DATASETS:
        raise DatasetError(
            f"unknown dataset {name!r}; expected one of {list(DATASETS)}"
        )
    spec = DATASETS[name]
    return split_into_lake(spec.flat(), spec.plan())
