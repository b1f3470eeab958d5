"""Frozen matcher outputs of the per-pair COMA scorer (``goldens/coma_matches.json``).

COMA's per-pair scorer once re-derived every name feature
(lower-casing, trigram set, token set) and ran a cell-by-cell Levenshtein
DP for each column pair.  Before that was replaced by per-name features, a
per-matcher name-score memo and the bit-vector Levenshtein, the full output
of the old scorer was frozen here, so "exact" is pinned to what the
replaced code produced and not to the new code itself.

Generated at commit c93c6dd (the last one carrying the per-pair scorer)
with this file copied into that checkout::

    PYTHONPATH=src python -m tests.discovery.coma_goldens

Per lake — ``credit`` and ``covertype`` in the data-lake setting (renamed
keys), ``make_wide_lake(16)``, an 8-satellite cut of ``bioresponse`` and a
hand-built lake whose constant and mid-cardinality columns are the only
ones the key-like filter rejects (every generated column is key-like) —
and per matcher — ``ComaMatcher()``, ``ComaMatcher(key_like_only=False)``,
``ValueOverlapMatcher()`` — every *ordered* table pair with at least one
match maps to its match list in output order (today: the lake of the
two, read by ``tests.matchers.pair_matches``), scores as
``float.hex``.  Both orders of a table pair are recorded because
Jaro-Winkler's greedy matching is not symmetric.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import permutations
from pathlib import Path

from repro.datasets import (
    DATASETS,
    build_dataset,
    make_wide_lake,
    rename_for_lake,
    split_into_lake,
)
from repro.dataframe import Table
from repro.discovery import ComaMatcher, profile_table
from tests.matchers import pair_matches
from tests.oracle.overlap import ValueOverlapMatcher

GOLDENS_PATH = Path(__file__).parent / "goldens" / "coma_matches.json"

MATCHERS = {
    "coma": ComaMatcher,
    "coma_all_columns": lambda: ComaMatcher(key_like_only=False),
    "value_overlap": ValueOverlapMatcher,
}


def _bioresponse_cut():
    spec = replace(DATASETS["bioresponse"], n_satellites=8, n_features=32, rows=300)
    return rename_for_lake(split_into_lake(spec.flat(), spec.plan()))


def _cardinality_lake():
    """Three tables mixing keys, categories, constants and 100-of-600 codes."""
    n = 600
    rows = range(n)
    return [
        Table(
            {
                "customerID": list(rows),
                "zipCode": [10000 + i % 100 for i in rows],
                "region_name": [f"r{i % 5}" for i in rows],
                "source": ["crm"] * n,
            },
            name="customers",
        ),
        Table(
            {
                "customer_id": [i * 2 for i in rows],
                "zip_code": [10000 + (i * 7) % 100 for i in rows],
                "Region": [f"r{i % 4}" for i in rows],
                "source_system": ["erp"] * n,
            },
            name="orders",
        ),
        Table(
            {
                "cust": [i + 300 for i in rows],
                "postal code": [10050 + i % 100 for i in rows],
                "straße": [f"s{i % 90}" for i in rows],
            },
            name="addresses",
        ),
    ]


LAKES = {
    "credit": lambda: rename_for_lake(build_dataset("credit")),
    "covertype": lambda: rename_for_lake(build_dataset("covertype")),
    "wide16": lambda: list(make_wide_lake(16).tables),
    "bioresponse_cut": _bioresponse_cut,
    "cardinality": _cardinality_lake,
}


def _row(match) -> list:
    """A match as frozen: COMA's rows carry its two channels as well."""
    row = [match.column_a, match.column_b, match.score.hex()]
    if match.name_score is not None:
        row += [match.name_score.hex(), match.instance_score.hex()]
    return row


def lake_profiles(lake: str) -> list:
    return [profile_table(table) for table in LAKES[lake]()]


def match_cells(profiles, matcher, floor: float = 0.0) -> dict[str, list]:
    """``"a|b" -> rows`` for every ordered table pair with any match."""
    cells = {}
    for profile_a, profile_b in permutations(profiles, 2):
        rows = [_row(m) for m in pair_matches(matcher, profile_a, profile_b, floor)]
        if rows:
            cells[f"{profile_a.table_name}|{profile_b.table_name}"] = rows
    return cells


def _generate() -> dict:
    out = {}
    for lake in LAKES:
        profiles = lake_profiles(lake)
        for name, factory in MATCHERS.items():
            out[f"{lake}/{name}"] = match_cells(profiles, factory())
    return out


def expected() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


if __name__ == "__main__":
    GOLDENS_PATH.parent.mkdir(exist_ok=True)
    lines = []
    for section, cells in _generate().items():
        body = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(rows, separators=(',', ':'))}"
            for key, rows in cells.items()
        )
        lines.append(f" {json.dumps(section)}: {{\n{body}\n }}")
    GOLDENS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDENS_PATH}")
