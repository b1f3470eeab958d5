"""Unit tests for CSV serialisation."""

import pytest

from repro.dataframe import DType, Table, from_csv_text, read_csv, to_csv_text, write_csv
from repro.errors import SchemaError


class TestParsing:
    def test_header_and_rows(self):
        t = from_csv_text("a,b\n1,x\n2,y\n")
        assert t.column_names == ["a", "b"]
        assert t.n_rows == 2

    def test_type_inference(self):
        t = from_csv_text("i,f,b,s\n1,1.5,true,hello\n")
        dtypes = {n: t[n].dtype for n in t.column_names}
        assert dtypes["i"] is DType.INT
        assert dtypes["f"] is DType.FLOAT
        assert dtypes["b"] is DType.BOOL
        assert dtypes["s"] is DType.STRING

    def test_empty_cell_is_null(self):
        t = from_csv_text("a,b\n1,\n,2\n")
        assert t.column("a").to_list() == [1, None]
        assert t.column("b").to_list() == [None, 2]

    def test_no_header_raises(self):
        with pytest.raises(SchemaError):
            from_csv_text("")

    def test_duplicate_header_raises(self):
        with pytest.raises(SchemaError):
            from_csv_text("a,a\n1,2\n")

    def test_numeric_looking_strings_parse(self):
        t = from_csv_text("a\n007\n")
        assert t.column("a")[0] == 7  # leading zeros parse as int


class TestSerialisation:
    def test_roundtrip(self):
        original = Table(
            {"i": [1, None, 3], "s": ["a", "b", None], "f": [1.5, 2.0, None]},
            name="t",
        )
        restored = from_csv_text(to_csv_text(original))
        assert restored.column("i").to_list() == [1, None, 3]
        assert restored.column("s").to_list() == ["a", "b", None]
        assert restored.column("f").to_list() == [1.5, 2, None]

    def test_bool_roundtrip(self):
        original = Table({"b": [True, False, None]}, name="t")
        restored = from_csv_text(to_csv_text(original))
        assert restored.column("b").to_list() == [True, False, None]

    def test_nulls_serialise_as_empty(self):
        # csv quotes a lone empty field ('""') to keep the row non-empty;
        # what matters is that it parses back to a null.
        text = to_csv_text(Table({"a": [None]}, name="t"))
        assert from_csv_text(text).column("a").to_list() == [None]


class TestFileIO:
    def test_write_and_read(self, tmp_path):
        path = tmp_path / "demo.csv"
        original = Table({"a": [1, 2], "b": ["x", "y"]}, name="demo")
        write_csv(original, path)
        restored = read_csv(path)
        assert restored == original
        assert restored.name == "demo"

    def test_read_name_override(self, tmp_path):
        path = tmp_path / "file.csv"
        write_csv(Table({"a": [1]}, name="x"), path)
        assert read_csv(path, name="custom").name == "custom"
