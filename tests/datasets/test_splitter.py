"""Unit tests for the snowflake splitter."""

import pytest

from repro.datasets import LABEL_COLUMN, SplitPlan, make_classification, split_into_lake
from repro.engine import JoinEngine
from repro.errors import DatasetError
from repro.graph import JoinPath, bfs_levels


@pytest.fixture(scope="module")
def flat():
    return make_classification(
        400, n_informative=6, n_redundant=3, n_noise=6, class_sep=2.0, seed=0
    )


@pytest.fixture(scope="module")
def bundle(flat):
    plan = SplitPlan(
        name="demo", n_satellites=5, n_base_features=3, max_depth=2, seed=0
    )
    return split_into_lake(flat, plan)


class TestStructure:
    def test_table_count(self, bundle):
        assert bundle.n_tables == 6  # base + 5 satellites

    def test_base_has_label(self, bundle):
        assert LABEL_COLUMN in bundle.base_table

    def test_every_feature_placed_exactly_once(self, bundle, flat):
        assert set(bundle.feature_placement) == set(flat.features)
        placements = list(bundle.feature_placement.values())
        tables = {t.name: t for t in bundle.tables}
        for feature, home in bundle.feature_placement.items():
            assert feature in tables[home]

    def test_constraint_per_satellite(self, bundle):
        assert len(bundle.constraints) == 5

    def test_constraints_reference_real_columns(self, bundle):
        tables = {t.name: t for t in bundle.tables}
        for constraint in bundle.constraints:
            assert constraint.column_a in tables[constraint.table_a]
            assert constraint.column_b in tables[constraint.table_b]

    def test_depths_respect_max(self, bundle):
        assert max(bundle.depths.values()) <= 2

    def test_drg_is_connected_snowflake(self, bundle):
        drg = bundle.benchmark_drg()
        levels = bfs_levels(drg.graph, bundle.base_name)
        assert set(levels) == set(bundle.depths)
        assert levels == bundle.depths


class TestSignalPlacement:
    def test_base_gets_weakest(self, bundle, flat):
        weakest = set(flat.relevance_order[:3])
        base_features = {
            f for f, home in bundle.feature_placement.items()
            if home == bundle.base_name
        }
        assert base_features == weakest

    def test_strongest_at_max_depth(self, bundle, flat):
        strongest = flat.relevance_order[-1]
        home = bundle.feature_placement[strongest]
        assert bundle.depths[home] == 2


class TestJoinability:
    def test_chain_join_recovers_values(self, bundle):
        drg = bundle.benchmark_drg()
        # Walk to a depth-2 satellite through its parent.
        deep = [t for t, d in bundle.depths.items() if d == 2][0]
        parent = next(
            c.table_a for c in bundle.constraints if c.table_b == deep
        )
        path = JoinPath(bundle.base_name)
        for source, target in ((bundle.base_name, parent), (parent, deep)):
            path = path.extend(drg.best_join_options(source, target)[0])
        table, __ = JoinEngine(drg).materialize_path(path, bundle.base_table)
        assert table.n_rows == bundle.base_table.n_rows
        deep_cols = [c for c in table.column_names if c.startswith(f"{deep}.")]
        # Most rows should resolve through the chain (match rates < 1 allow
        # some nulls, but never a fully-null right side).
        assert table.null_ratio(deep_cols) < 0.5

    def test_key_domains_disjoint_across_satellites(self, bundle):
        keys = {}
        for constraint in bundle.constraints:
            child = constraint.table_b
            table = next(t for t in bundle.tables if t.name == child)
            keys[child] = set(table.column(constraint.column_b).non_null_values())
        names = list(keys)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not (keys[a] & keys[b]), f"{a} and {b} share key values"


class TestMatchRates:
    def test_satellites_subsampled(self, flat):
        plan = SplitPlan(
            name="sub",
            n_satellites=3,
            n_base_features=3,
            match_rate_range=(0.5, 0.6),
            seed=1,
        )
        bundle = split_into_lake(flat, plan)
        for table in bundle.tables:
            if table.name == bundle.base_name:
                continue
            assert table.n_rows < flat.n_rows

    def test_full_match_rate_keeps_rows(self, flat):
        plan = SplitPlan(
            name="full",
            n_satellites=3,
            n_base_features=3,
            match_rate_range=(1.0, 1.0),
            seed=1,
        )
        bundle = split_into_lake(flat, plan)
        for table in bundle.tables:
            assert table.n_rows == flat.n_rows


class TestValidation:
    def test_base_swallowing_everything_raises(self, flat):
        plan = SplitPlan(name="bad", n_satellites=2, n_base_features=100)
        with pytest.raises(DatasetError):
            split_into_lake(flat, plan)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_satellites": 0, "n_base_features": 1},
            {"n_satellites": 1, "n_base_features": 0},
            {"n_satellites": 1, "n_base_features": 1, "max_depth": 0},
            {
                "n_satellites": 1,
                "n_base_features": 1,
                "match_rate_range": (0.0, 0.5),
            },
        ],
    )
    def test_invalid_plans_raise(self, kwargs):
        with pytest.raises(DatasetError):
            SplitPlan(name="x", **kwargs)

    def test_deterministic(self, flat):
        plan = SplitPlan(name="det", n_satellites=4, n_base_features=3, seed=5)
        a = split_into_lake(flat, plan)
        b = split_into_lake(flat, plan)
        assert a.feature_placement == b.feature_placement
        assert a.depths == b.depths
        for ta, tb in zip(a.tables, b.tables):
            assert ta == tb
