"""Unit tests for data-quality profiling."""

import pytest

from repro.dataframe import (
    Column,
    Table,
    column_quality,
    quality_report,
    verify_key_constraint,
)


class TestColumnQuality:
    def test_complete_unique_key(self):
        q = column_quality(Column(list(range(100))), "id")
        assert q.completeness == 1.0
        assert q.uniqueness == 1.0
        assert q.is_key_quality

    def test_nulls_lower_completeness(self):
        q = column_quality(Column([1, None, 3, None]), "x")
        assert q.completeness == 0.5
        assert not q.is_key_quality

    def test_constant_column(self):
        q = column_quality(Column([7, 7, 7]), "c")
        assert q.is_constant
        assert q.constancy == 1.0

    def test_constancy_of_mode(self):
        q = column_quality(Column([1, 1, 1, 2]), "c")
        assert q.constancy == 0.75

    def test_all_null(self):
        q = column_quality(Column([None, None]), "c")
        assert q.completeness == 0.0
        assert q.n_distinct == 0
        assert q.constancy == 0.0


class TestTableQuality:
    def make(self):
        return Table(
            {
                "id": list(range(10)),
                "const": [3] * 10,
                "holey": [None] * 5 + list(range(5)),
            },
            name="t",
        )

    def test_report_covers_all_columns(self):
        report = quality_report(self.make())
        assert [c.name for c in report.columns] == ["id", "const", "holey"]
        assert report.n_rows == 10

    def test_table_completeness(self):
        report = quality_report(self.make())
        assert report.completeness == pytest.approx((1.0 + 1.0 + 0.5) / 3)

    def test_constant_columns_flagged(self):
        assert quality_report(self.make()).constant_columns == ("const",)

    def test_key_candidates(self):
        assert quality_report(self.make()).key_candidates == ("id",)

    def test_rows_for_reporting(self):
        rows = quality_report(self.make()).rows()
        assert len(rows) == 3
        assert set(rows[0]) == {
            "column",
            "completeness",
            "uniqueness",
            "constancy",
            "distinct",
        }


class TestVerifyKeyConstraint:
    def test_perfect_constraint(self):
        parent = Table({"fk": [1, 2, 3]}, name="p")
        child = Table({"pk": [1, 2, 3, 4]}, name="c")
        report = verify_key_constraint(parent, "fk", child, "pk")
        assert report["child_key_unique"]
        assert report["coverage"] == 1.0
        assert report["dangling"] == 0

    def test_dangling_references(self):
        parent = Table({"fk": [1, 2, 99]}, name="p")
        child = Table({"pk": [1, 2]}, name="c")
        report = verify_key_constraint(parent, "fk", child, "pk")
        assert report["dangling"] == 1
        assert report["coverage"] == pytest.approx(2 / 3)

    def test_duplicate_child_keys_flagged(self):
        parent = Table({"fk": [1]}, name="p")
        child = Table({"pk": [1, 1]}, name="c")
        assert not verify_key_constraint(parent, "fk", child, "pk")["child_key_unique"]

    def test_generated_lake_constraints_verify(self):
        from repro.datasets import build_dataset

        bundle = build_dataset("credit")
        tables = {t.name: t for t in bundle.tables}
        for constraint in bundle.constraints:
            report = verify_key_constraint(
                tables[constraint.table_a],
                constraint.column_a,
                tables[constraint.table_b],
                constraint.column_b,
            )
            assert report["child_key_unique"], constraint
            # Satellites are subsampled, so coverage is high but can dip
            # below 1; it must never be catastrophically low.
            assert report["coverage"] > 0.5, constraint
