"""In-memory columnar table engine (the relational substrate).

Pandas is deliberately not a dependency; this package implements exactly the
relational-algebra surface AutoFeat relies on — typed null-aware columns,
immutable tables, left-join kernels with cardinality control, stratified
sampling and CSV I/O.
"""

from .column import Column, DType
from .encoding import CODE_NULL, KeyDictionary, normalize_key
from .io import from_csv_text, read_csv, to_csv_text, write_csv
from .join import JoinIndex, gather_rows
from .quality import (
    ColumnQuality,
    TableQuality,
    column_quality,
    distinct_count,
    quality_report,
    uniqueness,
    verify_key_constraint,
)
from .sampling import stratified_sample, train_test_split_indices
from .table import Table

__all__ = [
    "Column",
    "DType",
    "Table",
    "JoinIndex",
    "gather_rows",
    "KeyDictionary",
    "CODE_NULL",
    "normalize_key",
    "distinct_count",
    "uniqueness",
    "stratified_sample",
    "train_test_split_indices",
    "read_csv",
    "write_csv",
    "from_csv_text",
    "to_csv_text",
    "ColumnQuality",
    "TableQuality",
    "column_quality",
    "quality_report",
    "verify_key_constraint",
]
