"""Unit tests for the immutable Table."""

import numpy as np
import pytest

from repro.dataframe import Column, DType, Table
from repro.errors import SchemaError


@pytest.fixture
def table():
    return Table(
        {
            "id": [1, 2, 3, 4],
            "x": [1.0, None, 3.0, 4.0],
            "name": ["a", "b", None, "d"],
        },
        name="demo",
    )


class TestConstruction:
    def test_shape(self, table):
        assert table.n_rows == 4
        assert table.n_cols == 3

    def test_column_names_ordered(self, table):
        assert table.column_names == ["id", "x", "name"]

    def test_wraps_raw_sequences(self):
        t = Table({"a": [1, 2]})
        assert isinstance(t.column("a"), Column)

    def test_length_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Table({"a": [1, 2], "b": [1]})

    def test_empty_name_column_raises(self):
        with pytest.raises(SchemaError):
            Table({"": [1]})

    def test_from_rows(self):
        t = Table.from_rows(["a", "b"], [(1, "x"), (2, "y")])
        assert t.column("b").to_list() == ["x", "y"]

    def test_from_rows_width_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Table.from_rows(["a", "b"], [(1,)])

    def test_zero_row_table(self):
        t = Table({"a": []})
        assert t.n_rows == 0


class TestAccess:
    def test_contains(self, table):
        assert "id" in table
        assert "zzz" not in table

    def test_column_lookup_error_lists_available(self, table):
        with pytest.raises(SchemaError, match="available"):
            table.column("zzz")

    def test_getitem(self, table):
        assert table["id"].to_list() == [1, 2, 3, 4]

    def test_row(self, table):
        assert [table[n][1] for n in table.column_names] == [2, None, "b"]

    def test_to_dict(self, table):
        assert table["name"].to_list() == ["a", "b", None, "d"]

    def test_dtypes(self, table):
        assert table["name"].dtype is DType.STRING

    def test_equality(self, table):
        clone = Table({n: table[n].to_list() for n in table.column_names}, name="other")
        assert table == clone  # equality ignores the table name

    def test_inequality_on_columns(self, table):
        assert table != table.select(["id", "name"])


class TestRelationalOps:
    def test_select_order(self, table):
        t = table.select(["name", "id"])
        assert t.column_names == ["name", "id"]

    def test_rename(self, table):
        t = table.rename({"id": "key"})
        assert "key" in t and "id" not in t

    def test_rename_unknown_raises(self, table):
        with pytest.raises(SchemaError):
            table.rename({"zzz": "a"})

    def test_rename_collision_raises(self, table):
        with pytest.raises(SchemaError):
            table.rename({"id": "x"})

    def test_prefixed(self, table):
        t = table.prefixed("demo", exclude=["id"])
        assert t.column_names == ["id", "demo.x", "demo.name"]

    def test_filter(self, table):
        t = table.filter(np.array([True, False, True, False]))
        assert t.column("id").to_list() == [1, 3]

    def test_take(self, table):
        t = table.take([3, 0])
        assert t.column("id").to_list() == [4, 1]


class TestAnalytics:
    def test_null_ratio_all_columns(self, table):
        # 2 nulls over 12 cells
        assert table.null_ratio() == pytest.approx(2 / 12)

    def test_null_ratio_subset(self, table):
        assert table.null_ratio(["x"]) == pytest.approx(0.25)

    def test_null_ratio_empty_selection(self, table):
        assert table.null_ratio([]) == 0.0

    def test_numeric_matrix_shape(self, table):
        m = table.numeric_matrix()
        assert m.shape == (4, 3)

    def test_numeric_matrix_nan_for_nulls(self, table):
        m = table.numeric_matrix(["x"])
        assert np.isnan(m[1, 0])

    def test_numeric_matrix_encodes_strings(self, table):
        m = table.numeric_matrix(["name"])
        assert m[0, 0] == 0.0  # 'a'
        assert np.isnan(m[2, 0])

    def test_numeric_matrix_empty_columns(self, table):
        assert table.numeric_matrix([]).shape == (4, 0)


class TestImmutability:
    def test_select_does_not_alias(self, table):
        selected = table.select(["id"])
        assert selected is not table
        assert table.n_cols == 3

    def test_operations_preserve_original(self, table):
        table.filter(np.array([True, True, False, False]))
        table.rename({"id": "key"})
        assert table.column_names == ["id", "x", "name"]
