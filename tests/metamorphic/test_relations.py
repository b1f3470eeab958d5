"""Metamorphic relations: a change to the lake that must not change discovery.

Each relation runs ``discover`` on a lake and on a transformed copy and
compares the two verdict logs (``DiscoveryResult.verdicts``, one verdict
per generated hop plus one per similarity-pruned join option), so no
oracle is needed:

* scaling every non-key float column of every satellite table by a power
  of two leaves the log identical — Spearman relevance and equal-width
  binning are invariant to it.  The DRG is the lake's KFK graph: a
  value-overlap matcher sees the scaled values, so rediscovering the
  edges is a different relation;
* adding a table with no joinable column leaves the log identical, on the
  KFK graph and on the matcher-discovered one;
* raising τ only removes ranked verdicts: the ranked paths at a higher τ
  are a subset of those at a lower one (unbudgeted runs);
* raising the DRG's edge threshold only removes edges: every table's
  adjacency at a higher threshold is its adjacency at a lower one with the
  edges below the higher threshold taken out, in the same order.  The
  matcher is handed the threshold as its floor, so this also holds the
  matcher's skipping to what the threshold drops;
* reversing the table listing the matcher-discovered DRG is built from
  leaves the ranked paths and their scores identical: every adjacency
  list is kept sorted, so the order features enter ``R_sel`` — and with
  it every MRMR score — is the graph's, not the listing's;
* a ``DiscoveryService`` started on the base table alone, with the other
  tables registered one by one — in listing order or in reverse — ranks
  the same paths with the same scores as a service built cold on the
  whole lake: incremental matching replays into the cold DRG;
* permuting the rows of every satellite whose join keys are unique
  leaves the log identical: a join reads a row by its key, never by its
  position, and deduplication has nothing to pick.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Column, DType, Table
from repro.datasets import benchmark_drg, datalake_drg, rename_for_lake
from repro.discovery import ComaMatcher
from repro.graph import DatasetRelationGraph
from repro.service import DiscoveryService

from tests.core.driver_goldens import _lake, golden_lake

GOLDEN_LAKES = ("credit", "covertype")
#: Three random snowflake lakes, ``split-<satellites>-<depth>-<seed>``.
RANDOM_LAKES = ("split-4-2-0", "split-5-3-1", "split-6-2-2")
TAUS = (0.0, 0.3, 0.5, 0.65, 0.8, 0.9, 1.0)
THRESHOLDS = (0.3, 0.45, 0.55, 0.7, 0.85, 1.0)
DRG_BUILDERS = {"kfk": benchmark_drg, "matched": datalake_drg}


def bundle_of(lake: str):
    if lake.startswith("split-"):
        return _lake(*map(int, lake.split("-")[1:]))[0]
    return golden_lake(lake)[0]


def verdicts(bundle, drg, **overrides):
    config = AutoFeatConfig(sample_size=200, **overrides)
    discovery = AutoFeat(drg, config).discover(bundle.base_name, bundle.label_column)
    return discovery.verdicts


def scaled(bundle, factor: float):
    """``bundle`` with every non-key float column of its satellites scaled."""
    keys = {c.column_a for c in bundle.constraints}
    keys |= {c.column_b for c in bundle.constraints}
    tables = []
    for table in bundle.tables:
        if table.name == bundle.base_name:
            tables.append(table)
            continue
        columns = {}
        for name in table.column_names:
            column = table.column(name)
            if column.dtype is DType.FLOAT and name not in keys:
                column = Column(column.values * factor, DType.FLOAT, column.mask)
            columns[name] = column
        tables.append(Table(columns, name=table.name))
    return replace(bundle, tables=tuple(tables))


def with_island(bundle):
    """``bundle`` plus a table whose names and values match nothing."""
    n = bundle.base_table.n_rows
    island = Table(
        {
            "zz_isolated_code": [f"iso-{i}" for i in range(n)],
            "zz_isolated_level": np.random.default_rng(7).normal(0, 1, n) + 1e6,
        },
        name="zz_island",
    )
    return replace(bundle, tables=bundle.tables + (island,))


def ranked_paths(log) -> set[str]:
    return {v.ranked.path.describe() for v in log if v.kind == "ranked"}


def ranked_scores(log) -> list:
    return [(v.ranked.path.describe(), v.ranked.score.hex()) for v in log if v.kind == "ranked"]


@pytest.mark.parametrize("factor", (2.0, 0.5, 1024.0))
@pytest.mark.parametrize("lake", GOLDEN_LAKES)
def test_scaling_satellite_floats_keeps_the_verdict_log(lake, factor):
    bundle, drg = golden_lake(lake)
    reference = verdicts(bundle, drg)
    assert ranked_paths(reference)
    transformed = scaled(bundle, factor)
    assert transformed.tables != bundle.tables
    assert verdicts(transformed, benchmark_drg(transformed)) == reference


@pytest.mark.parametrize("setting", sorted(DRG_BUILDERS))
@pytest.mark.parametrize("lake", GOLDEN_LAKES)
def test_an_unjoinable_table_keeps_the_verdict_log(lake, setting):
    bundle = bundle_of(lake)
    build = DRG_BUILDERS[setting]
    reference = verdicts(bundle, build(bundle))
    transformed = with_island(bundle)
    drg = build(transformed)
    assert "zz_island" in drg.table_names and drg.neighbors("zz_island") == []
    assert verdicts(transformed, drg) == reference


@pytest.mark.parametrize("lake", GOLDEN_LAKES + RANDOM_LAKES)
def test_raising_tau_only_removes_ranked_verdicts(lake):
    bundle = bundle_of(lake)
    drg = datalake_drg(bundle)
    ranked = [ranked_paths(verdicts(bundle, drg, tau=tau)) for tau in TAUS]
    assert ranked[0] != ranked[-1]
    for lower, higher in zip(ranked, ranked[1:]):
        assert higher <= lower


@pytest.mark.parametrize("lake", GOLDEN_LAKES + RANDOM_LAKES)
def test_raising_the_edge_threshold_only_removes_edges(lake):
    bundle = bundle_of(lake)
    drgs = [datalake_drg(bundle, threshold=t) for t in THRESHOLDS]
    assert drgs[0].n_relationships > drgs[-1].n_relationships
    for lower, (threshold, higher) in zip(drgs, zip(THRESHOLDS[1:], drgs[1:])):
        assert higher.table_names == lower.table_names
        for name in lower.table_names:
            kept = [e for e in lower.graph.edges_of(name) if e.weight >= threshold]
            assert higher.graph.edges_of(name) == kept, (threshold, name)


@pytest.mark.parametrize("lake", GOLDEN_LAKES + RANDOM_LAKES)
def test_reversing_the_table_listing_keeps_the_ranking(lake):
    bundle = bundle_of(lake)
    tables = rename_for_lake(bundle)
    ranked = []
    for listing in (tables, tables[::-1]):
        drg = DatasetRelationGraph.from_discovery(listing, ComaMatcher(), threshold=0.55)
        ranked.append(ranked_scores(verdicts(bundle, drg)))
    assert ranked[0] and ranked[0] == ranked[1]


@pytest.mark.parametrize("lake", GOLDEN_LAKES + RANDOM_LAKES)
def test_registering_tables_one_by_one_keeps_the_ranking(lake):
    bundle = bundle_of(lake)
    tables = rename_for_lake(bundle)
    base = next(t for t in tables if t.name == bundle.base_name)
    others = [t for t in tables if t is not base]
    config = AutoFeatConfig(sample_size=200)

    def ranking(service):
        with service:
            response = service.discover(bundle.base_name, bundle.label_column)
        return ranked_scores(response.result.verdicts)

    cold = ranking(DiscoveryService(tables, config=config))
    assert cold
    for order in (others, others[::-1]):
        service = DiscoveryService([base], config=config)
        for table in order:
            service.register_table(table)
        assert ranking(service) == cold


def with_permuted_rows(bundle, seed: int = 11):
    """``bundle`` with the rows of every satellite whose join keys are all
    unique (and non-null) in a seeded random order."""
    rng = np.random.default_rng(seed)
    tables = []
    for table in bundle.tables:
        keys = {c.column_a for c in bundle.constraints if c.table_a == table.name}
        keys |= {c.column_b for c in bundle.constraints if c.table_b == table.name}
        unique = all(
            not table.column(k).has_nulls() and len(table.column(k).unique()) == table.n_rows
            for k in keys
        )
        if table.name != bundle.base_name and unique:
            table = table.take(rng.permutation(table.n_rows))
        tables.append(table)
    return replace(bundle, tables=tuple(tables))


@pytest.mark.parametrize("lake", GOLDEN_LAKES + RANDOM_LAKES)
def test_permuting_satellite_rows_keeps_the_verdict_log(lake):
    bundle = bundle_of(lake)
    reference = verdicts(bundle, benchmark_drg(bundle))
    assert ranked_paths(reference)
    transformed = with_permuted_rows(bundle)
    assert transformed.tables != bundle.tables
    log = verdicts(transformed, benchmark_drg(transformed))
    assert log == reference
    assert ranked_scores(log) == ranked_scores(reference)
