"""Hostile inputs through the whole pipeline, on one CPU and on two.

Each case bends one thing about the quickstart Figure-2 lake (n = 300) —
infinite or extreme feature values, keys past 2**53, a single-class label,
an all-NaN column, a satellite with no rows or with every non-key column
all NaN, a unicode column name — and runs ``augment`` on both
``ROUTES``.  Each run must finish, and both routes must rank the same
paths with the same scores and train them to the same accuracies.  The
runs select with CIFE: under the default MRMR no path of this lake adds a
feature at n = 300, so every top-k path would share one base-only fit and
the two-CPU route would never start its pool.
"""

import numpy as np
import pytest

from examples.quickstart import build_lake
from repro import AutoFeat, AutoFeatConfig, DatasetRelationGraph, KFKConstraint, Table
from repro.errors import ModelError
from tests.conftest import ROUTES, cpus
from tests.core.driver_goldens import distinct_fits

BASE, LABEL = "applicants", "loan_approval"
BIG = 2**53


# Each change edits the lake as ``{table: {column: values}}`` in place.


def inf_cells(lake):
    value = lake["property_value"]["value"].values.copy()
    value[[0, 5, 9]] = np.inf
    value[[1, 7]] = -np.inf
    lake["property_value"]["value"] = value


def scaled(factor):
    def change(lake):
        with np.errstate(over="ignore"):
            lake["property_value"]["value"] = lake["property_value"]["value"].values * factor

    return change


def big_keys(float_side):
    def change(lake):
        for columns in lake.values():
            for key in ("applicant_id", "property_id"):
                if key in columns:
                    columns[key] = columns[key].values + BIG
        if float_side:
            credit = lake["credit_profile"]
            credit["applicant_id"] = credit["applicant_id"].astype(np.float64)

    return change


def single_class(lake):
    lake[BASE][LABEL] = np.zeros(len(lake[BASE][LABEL]), dtype=np.int64)


def all_nan_column(lake):
    history = lake["loan_history"]
    history["past_defaults"] = np.full(len(history["past_defaults"]), np.nan)


def empty_satellite(lake):
    lake["property_value"] = {
        name: column.values[:0] for name, column in lake["property_value"].items()
    }


def all_null_satellite(lake):
    # property_value: its two non-key columns, a float and an int (loan
    # history's one non-key column is all_nan_column's).
    columns = lake["property_value"]
    for name in ("value", "rooms"):
        columns[name] = np.full(len(columns[name]), np.nan)


def unicode_name(lake):
    columns = lake["property_value"]
    lake["property_value"] = {
        "wert_€_数据" if name == "value" else name: column for name, column in columns.items()
    }


CASES = {
    "inf_cells": inf_cells,
    "scaled_1e-160": scaled(1e-160),
    "scaled_5e305": scaled(5e305),
    "keys_2^53": big_keys(float_side=False),
    "keys_2^53_one_side_float": big_keys(float_side=True),
    "single_class_label": single_class,
    "all_nan_column": all_nan_column,
    "empty_satellite": empty_satellite,
    "all_null_satellite": all_null_satellite,
    "unicode_column_name": unicode_name,
}


def hostile_lake(change) -> DatasetRelationGraph:
    drg, __ = build_lake(n=300)
    lake = {
        name: {column: drg.table(name)[column] for column in drg.table(name).column_names}
        for name in drg.table_names
    }
    change(lake)
    tables = [Table(columns, name=name) for name, columns in lake.items()]
    constraints = [KFKConstraint(*edge[:4]) for edge in drg.edge_fingerprint()]
    return DatasetRelationGraph.from_constraints(tables, constraints)


CONFIG = AutoFeatConfig(kappa=10, top_k=4, seed=1, redundancy_method="cife")


def outcome(drg, route):
    """Ranked paths and trained accuracies, and the distinct fits made."""
    with cpus(ROUTES[route]):
        result = AutoFeat(drg, CONFIG).augment(BASE, LABEL)
    ranked = [(r.path.describe(), float(r.score).hex()) for r in result.discovery.ranked_paths]
    trained = [(t.ranked.path.describe(), float(t.accuracy).hex()) for t in result.trained]
    return ranked, trained, distinct_fits(result.trained)


@pytest.mark.parametrize("case", CASES)
def test_both_routes_finish_and_agree(case, pools):
    drg = hostile_lake(CASES[case])
    serial, processes = (outcome(drg, route) for route in ROUTES)
    assert serial == processes
    # The two-CPU route pools whenever two distinct fits miss.
    assert pools == ([2] if serial[2] >= 2 else [])


@pytest.mark.parametrize("route", ROUTES)
def test_empty_base_table_fails_typed(route):
    """A base table sliced to 0 rows stops at the first fit with a ModelError."""

    def empty_base(lake):
        lake[BASE] = {name: column.values[:0] for name, column in lake[BASE].items()}

    with cpus(ROUTES[route]), pytest.raises(ModelError, match="zero rows"):
        AutoFeat(hostile_lake(empty_base), CONFIG).augment(BASE, LABEL)
