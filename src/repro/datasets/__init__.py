"""Synthetic evaluation lakes: planted-signal twins of the Table II datasets."""

from .generators import FlatDataset, WideLake, make_classification, make_wide_lake
from .lake import DEFAULT_LAKE_THRESHOLD, benchmark_drg, datalake_drg, rename_for_lake
from .registry import DATASETS, DatasetSpec, build_dataset
from .splitter import (
    BASE_ID,
    LABEL_COLUMN,
    LakeBundle,
    SplitPlan,
    key_column_name,
    ref_column_name,
    split_into_lake,
)

__all__ = [
    "FlatDataset",
    "make_classification",
    "WideLake",
    "make_wide_lake",
    "SplitPlan",
    "LakeBundle",
    "split_into_lake",
    "key_column_name",
    "ref_column_name",
    "LABEL_COLUMN",
    "BASE_ID",
    "benchmark_drg",
    "datalake_drg",
    "rename_for_lake",
    "DEFAULT_LAKE_THRESHOLD",
    "DatasetSpec",
    "DATASETS",
    "build_dataset",
]
