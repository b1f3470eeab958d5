"""Property-based parity of the dictionary-encoded join kernels.

The determinism contract of the encoded kernels (DESIGN.md §13) has two
halves, both driven here over hypothesis-drawn inputs:

* **kernel level** — build, dedup and (spilling, chunked) probe return
  exactly what the dict-of-boxed-scalars reference in
  ``tests/dataframe/test_join_reference.py`` returns: same rows, same row
  order, same dedup representatives, same error on a duplicate key;
* **discovery level** — for any lake, any seed, any chunk size and either
  schema matcher, a chunked + spilled run ranks the same paths with the
  same scores as the in-core run.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Column, DType, JoinIndex, Table, dedup_by_key, left_join
from repro.datasets import make_classification, split_into_lake
from repro.datasets.splitter import SplitPlan
from repro.discovery import ComaMatcher, DistributionMatcher
from repro.engine import chunked_left_join
from repro.errors import JoinError
from repro.graph import DatasetRelationGraph
from tests.dataframe.test_join_reference import (
    reference_join_index,
    reference_left_join_table,
)

MATCHERS = {
    "coma": lambda: ComaMatcher(),
    "distribution": lambda: DistributionMatcher(),
}


@lru_cache(maxsize=16)
def _lake(n_satellites: int, max_depth: int, seed: int):
    """Small deterministic snowflake lake (cached across examples)."""
    flat = make_classification(
        n_rows=240,
        n_informative=5,
        n_redundant=2,
        n_noise=3,
        class_sep=1.6,
        seed=seed,
    )
    plan = SplitPlan(
        name=f"enclake{n_satellites}d{max_depth}s{seed}",
        n_satellites=n_satellites,
        n_base_features=2,
        max_depth=max_depth,
        match_rate_range=(0.75, 1.0),
        seed=seed,
    )
    bundle = split_into_lake(flat, plan)
    return bundle, bundle.benchmark_drg()


@lru_cache(maxsize=8)
def _matched_drg(matcher_name: str, seed: int):
    """A lake whose DRG edges come from a real schema matcher."""
    bundle, _ = _lake(3, 2, seed)
    tables = [bundle.base_table] + [
        t for t in bundle.tables if t.name != bundle.base_name
    ]
    matcher = MATCHERS[matcher_name]()
    return bundle, DatasetRelationGraph.from_discovery(tables, matcher, threshold=0.55)


def discovery_fingerprint(discovery):
    """Everything order- or value-sensitive in a DiscoveryResult."""
    return {
        "ranked": [
            (
                r.path.describe(),
                r.score,
                r.selected_features,
                r.relevance_scores,
                r.redundancy_scores,
                r.completeness,
                r.relevant_names,
            )
            for r in discovery.ranked_paths
        ],
        "explored": discovery.n_paths_explored,
        "pruned_quality": discovery.n_paths_pruned_quality,
        "pruned_similarity": discovery.n_joins_pruned_similarity,
        "empty_contribution": discovery.n_hops_empty_contribution,
    }


def table_fingerprint(table: Table):
    """Bit-exact rendering of a table: schema, row order, values, masks."""
    out = []
    for name in table.column_names:
        column = table.column(name)
        values = column.values
        if column.dtype is DType.FLOAT:
            # hex() so an unmasked NaN cell compares equal to itself.
            values = [v.hex() for v in values.tolist()]
        elif column.dtype is not DType.STRING:
            values = values.tolist()
        payload = tuple(None if m else v for v, m in zip(values, column.mask))
        out.append((name, column.dtype.name, payload))
    return tuple(out)


def _discover(bundle, drg, *, config_seed, chunk_rows=None, budget=None):
    config = AutoFeatConfig(
        sample_size=120,
        seed=config_seed,
        chunk_rows=chunk_rows,
        memory_budget_bytes=budget,
        enable_tracing=False,
    )
    return AutoFeat(drg, config).discover(bundle.base_name, bundle.label_column)


# -- kernel-level parity -----------------------------------------------------

_key_columns = st.sampled_from(["int", "float", "float_nan", "str", "bool"])


def _column(kind: str, n: int, rng: np.random.Generator) -> Column:
    mask = rng.random(n) < 0.2
    if kind == "int":
        return Column(rng.integers(-4, 12, n), dtype=DType.INT, mask=mask)
    if kind == "float":
        values = rng.integers(-4, 12, n).astype(float) + rng.choice([0.0, 0.25], n)
        return Column(values, dtype=DType.FLOAT, mask=mask)
    if kind == "float_nan":
        # NaN cells under an all-False mask: not nulls to the Column, but
        # nulls to a join (NaN equals no probe value).
        values = rng.integers(-4, 12, n).astype(float) + rng.choice([0.0, 0.25], n)
        values[mask] = np.nan
        return Column(values, dtype=DType.FLOAT, mask=np.zeros(n, dtype=bool))
    if kind == "bool":
        return Column(rng.random(n) < 0.5, dtype=DType.BOOL, mask=mask)
    values = np.array([f"k{v}" for v in rng.integers(-4, 12, n)], dtype=object)
    return Column(values, dtype=DType.STRING, mask=mask)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    left_kind=_key_columns,
    right_kind=_key_columns,
    n_left=st.integers(min_value=0, max_value=120),
    n_right=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
    chunk_rows=st.integers(min_value=1, max_value=48),
)
def test_join_kernels_bit_identical(
    left_kind, right_kind, n_left, n_right, seed, chunk_rows
):
    rng = np.random.default_rng(seed)
    left = Table(
        {"k": _column(left_kind, n_left, rng), "x": _column("float", n_left, rng)},
        name="L",
    )
    right = Table(
        {"k": _column(right_kind, n_right, rng), "y": _column("int", n_right, rng)},
        name="R",
    )
    ref_build, ref_index = reference_join_index(right, "k", seed)
    index = JoinIndex.build(right, "k", seed=seed)
    # Dedup representatives: same surviving rows in the same order.
    assert table_fingerprint(ref_build) == table_fingerprint(index.build_table)
    assert len(ref_index) == index.n_keys
    assert table_fingerprint(ref_build) == table_fingerprint(
        dedup_by_key(right, "k", seed=seed)
    )
    # Cell-by-cell reference join vs in-core and chunked join, spill forced.
    expect = table_fingerprint(
        reference_left_join_table(left, ref_build, ref_index, "k")
    )
    assert expect == table_fingerprint(index.left_join(left, "k"))
    got = chunked_left_join(
        index,
        left,
        "k",
        chunk_rows=chunk_rows,
        memory_budget_bytes=256,
    )
    assert expect == table_fingerprint(got)
    # Without dedup: the same join, or the same duplicate-key error.
    try:
        raw_build, raw_index = reference_join_index(
            right, "k", seed, deduplicate=False
        )
    except JoinError as exc:
        with pytest.raises(JoinError) as raised:
            left_join(left, right, "k", "k", seed=seed, deduplicate=False)
        assert str(raised.value) == str(exc)
    else:
        assert table_fingerprint(
            reference_left_join_table(left, raw_build, raw_index, "k")
        ) == table_fingerprint(
            left_join(left, right, "k", "k", seed=seed, deduplicate=False)
        )


# -- end-to-end discovery parity --------------------------------------------


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    lake=st.tuples(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    config_seed=st.integers(min_value=0, max_value=5),
    chunk_rows=st.sampled_from([16, 50, 97]),
)
def test_discover_parity_encoded_chunked_vs_scalar(lake, config_seed, chunk_rows):
    """In-core discovery vs chunked + spilled discovery."""
    bundle, drg = _lake(*lake)
    in_core = _discover(bundle, drg, config_seed=config_seed)
    chunked = _discover(
        bundle,
        drg,
        config_seed=config_seed,
        chunk_rows=chunk_rows,
        budget=8192,  # small enough to spill on every realistic hop
    )
    assert discovery_fingerprint(in_core) == discovery_fingerprint(chunked)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    matcher_name=st.sampled_from(sorted(MATCHERS)),
    seed=st.integers(min_value=0, max_value=2),
    chunk_rows=st.sampled_from([32, 80]),
)
def test_discover_parity_with_real_matchers(matcher_name, seed, chunk_rows):
    """Matcher-discovered DRGs (spurious edges included) stay bit-identical."""
    bundle, drg = _matched_drg(matcher_name, seed)
    in_core = _discover(bundle, drg, config_seed=seed)
    chunked = _discover(
        bundle,
        drg,
        config_seed=seed,
        chunk_rows=chunk_rows,
        budget=8192,
    )
    assert discovery_fingerprint(in_core) == discovery_fingerprint(chunked)
