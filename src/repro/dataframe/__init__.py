"""In-memory columnar table engine (the relational substrate).

Pandas is deliberately not a dependency; this package implements exactly the
relational-algebra surface AutoFeat relies on — typed null-aware columns,
immutable tables, left joins with cardinality control, group-by, stratified
sampling, imputation and CSV I/O.
"""

from .column import Column, DType
from .encoding import CODE_NULL, KeyDictionary, normalize_key
from .groupby import aggregate, distinct_count, group_indices, group_sizes, uniqueness
from .impute import (
    impute_constant,
    impute_mean,
    impute_median,
    impute_most_frequent,
)
from .io import from_csv_text, read_csv, to_csv_text, write_csv
from .join import JoinIndex, dedup_by_key, gather_rows, inner_join, left_join
from .quality import (
    ColumnQuality,
    TableQuality,
    column_quality,
    quality_report,
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
    "left_join",
    "inner_join",
    "dedup_by_key",
    "group_indices",
    "group_sizes",
    "aggregate",
    "distinct_count",
    "uniqueness",
    "stratified_sample",
    "train_test_split_indices",
    "impute_most_frequent",
    "impute_mean",
    "impute_median",
    "impute_constant",
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
