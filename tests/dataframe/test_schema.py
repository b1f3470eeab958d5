"""Unit tests for schema inference."""

import numpy as np

from repro.dataframe import Column, Table, infer_role, schema_of
from repro.dataframe.schema import CATEGORY_ROLE, FEATURE_ROLE, KEY_ROLE


class TestInferRole:
    def test_unique_ints_are_key(self):
        assert infer_role(Column(list(range(100)))) == KEY_ROLE

    def test_low_cardinality_is_category(self):
        assert infer_role(Column([1, 2, 3] * 40)) == CATEGORY_ROLE

    def test_continuous_is_feature(self):
        rng = np.random.default_rng(0)
        values = np.round(rng.normal(size=1000), 6)
        # Continuous but with occasional repeats (rounding) -> feature.
        values[::2] = values[1::2]
        assert infer_role(Column(values)) == FEATURE_ROLE

    def test_constant_column_not_key(self):
        assert infer_role(Column([5] * 50)) != KEY_ROLE


class TestSchemaOf:
    def test_profiles_every_column(self):
        t = Table({"id": list(range(60)), "cat": [1, 2] * 30}, name="t")
        schema = schema_of(t)
        assert schema.name == "t"
        assert [c.name for c in schema.columns] == ["id", "cat"]

    def test_key_candidates(self):
        t = Table(
            {
                "id": list(range(60)),
                "cat": [1, 2] * 30,
                "noise": np.random.default_rng(0).normal(size=60),
            },
            name="t",
        )
        schema = schema_of(t)
        candidates = {c.name for c in schema.key_candidates}
        assert "id" in candidates
        assert "cat" in candidates

    def test_one_distinct_pass_per_column(self, monkeypatch):
        t = Table(
            {"id": list(range(60)), "cat": [1, 2] * 30, "s": ["x", None] * 30}, name="t"
        )
        calls = []
        unique = Column.unique
        monkeypatch.setattr(Column, "unique", lambda col: calls.append(col) or unique(col))
        schema = schema_of(t)
        assert len(calls) == 3
        monkeypatch.undo()
        for col in schema.columns:
            assert col.role == infer_role(t.column(col.name))
            assert col.n_distinct == len(t.column(col.name).unique())

    def test_null_ratio_recorded(self):
        t = Table({"a": [1, None, None, 4]}, name="t")
        assert schema_of(t).column("a").null_ratio == 0.5

    def test_column_lookup_raises_keyerror(self):
        schema = schema_of(Table({"a": [1]}, name="t"))
        try:
            schema.column("zzz")
            assert False, "expected KeyError"
        except KeyError:
            pass
