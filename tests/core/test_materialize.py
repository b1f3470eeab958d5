"""Unit tests for join-path materialisation."""

import pytest

from repro.core import AutoFeat, AutoFeatConfig, qualified, source_column_name
from repro.dataframe import Table
from repro.engine import JoinEngine
from repro.errors import JoinError
from repro.graph import DatasetRelationGraph, JoinPath, KFKConstraint


@pytest.fixture
def drg():
    base = Table({"id": [1, 2, 3], "x": [1.0, 2.0, 3.0]}, name="base")
    mid = Table({"id": [1, 2], "fk": [10, 20], "m": [5.0, 6.0]}, name="mid")
    leaf = Table({"fk": [10, 20, 30], "z": [7.0, 8.0, 9.0]}, name="leaf")
    return DatasetRelationGraph.from_constraints(
        [base, mid, leaf],
        [
            KFKConstraint("base", "id", "mid", "id"),
            KFKConstraint("mid", "fk", "leaf", "fk"),
        ],
    )


def path_of(drg, *hops):
    path = JoinPath("base")
    for source, target in hops:
        edge = drg.best_join_options(source, target)[0]
        path = path.extend(edge)
    return path


class TestHelpers:
    def test_qualified(self):
        assert qualified("t", "c") == "t.c"

    def test_source_column_base(self, drg):
        edge = drg.best_join_options("base", "mid")[0]
        assert source_column_name(edge, "base") == "id"

    def test_source_column_transitive(self, drg):
        edge = drg.best_join_options("mid", "leaf")[0]
        assert source_column_name(edge, "base") == "mid.fk"


class TestApplyHop:
    def test_contributes_qualified_columns(self, drg):
        edge = drg.best_join_options("base", "mid")[0]
        joined, contributed = JoinEngine(drg).apply_hop(
            drg.table("base"), edge, "base"
        )
        assert set(contributed) == {"mid.id", "mid.fk", "mid.m"}
        assert joined.n_rows == 3

    def test_unmatched_rows_null(self, drg):
        edge = drg.best_join_options("base", "mid")[0]
        joined, __ = JoinEngine(drg).apply_hop(drg.table("base"), edge, "base")
        assert joined.column("mid.m").to_list() == [5.0, 6.0, None]

    def test_missing_source_column_raises(self, drg):
        edge = drg.best_join_options("mid", "leaf")[0]
        with pytest.raises(JoinError):
            # base table has no 'mid.fk' column: hop out of order.
            JoinEngine(drg).apply_hop(drg.table("base"), edge, "base")


class TestMaterializePath:
    def test_two_hop_chain(self, drg):
        path = path_of(drg, ("base", "mid"), ("mid", "leaf"))
        base = drg.table("base")
        table, contributions = JoinEngine(drg).materialize_path(path, base)
        assert table.n_rows == 3
        assert len(contributions) == 2
        assert "leaf.z" in table
        # Transitive values flow through: base row 1 -> mid fk 10 -> leaf z 7.
        assert table.column("leaf.z").to_list() == [7.0, 8.0, None]

    def test_empty_path_returns_base(self, drg):
        table, contributions = JoinEngine(drg).materialize_path(
            JoinPath("base"), drg.table("base")
        )
        assert table is drg.table("base")
        assert contributions == []

    def test_deterministic(self, drg):
        path = path_of(drg, ("base", "mid"), ("mid", "leaf"))
        a, __ = JoinEngine(drg, seed=4).materialize_path(path, drg.table("base"))
        b, __ = JoinEngine(drg, seed=4).materialize_path(path, drg.table("base"))
        assert a == b


class TestRenamedSourceKey:
    """A hop probes with the column its source table's key was written as.

    The base already holds a column named ``a.k``, so hop 1 writes ``a``'s
    key as ``a.k_r``; hop 2 must probe ``b`` with ``a.k_r``, not with the
    base's constant ``a.k``.
    """

    EXPECTED = [1.5 * i for i in range(6)]

    @pytest.fixture
    def drg(self):
        ids = list(range(6))
        base = Table(
            {"id": ids, "a.k": [100] * 6, "label": [i % 2 for i in ids]},
            name="base",
        )
        a = Table({"id": ids, "k": [i + 10 for i in ids]}, name="a")
        b = Table({"k": [i + 10 for i in ids], "f": self.EXPECTED}, name="b")
        return DatasetRelationGraph.from_constraints(
            [base, a, b],
            [
                KFKConstraint("base", "id", "a", "id"),
                KFKConstraint("a", "k", "b", "k"),
            ],
        )

    def test_source_column_is_the_last_suffixed_name(self, drg):
        edge = drg.best_join_options("a", "b")[0]
        columns = ["id", "a.k", "label", "a.id", "a.k_r"]
        assert source_column_name(edge, "base", columns) == "a.k_r"
        later = ["a.k_r_r", "a.id", "a.k_r"]
        assert source_column_name(edge, "base", later) == "a.k_r"
        assert source_column_name(edge, "base", ["a.k", "a.kk"]) == "a.k"

    def test_apply_hop(self, drg):
        table = drg.table("base")
        first = drg.best_join_options("base", "a")[0]
        table, contributed = JoinEngine(drg).apply_hop(table, first, "base")
        assert contributed == ["a.id", "a.k_r"]
        second = drg.best_join_options("a", "b")[0]
        table, __ = JoinEngine(drg).apply_hop(table, second, "base")
        assert table.column("b.f").to_list() == self.EXPECTED

    def test_materialize_path(self, drg):
        path = path_of(drg, ("base", "a"), ("a", "b"))
        table, __ = JoinEngine(drg).materialize_path(path, drg.table("base"))
        assert table.column("b.f").to_list() == self.EXPECTED

    def test_discover_ranks_the_two_hop_path_complete(self, drg):
        discovery = AutoFeat(drg, AutoFeatConfig()).discover("base", "label")
        two_hop = [v for v in discovery.verdicts if v.path.length == 1]
        assert [v.kind for v in two_hop] == ["ranked"]
        assert two_hop[0].ranked.completeness == 1.0


class TestSourceTableWithAnRColumn:
    """A source table's own ``k_r`` column is not its key.

    ``a`` has both ``k`` and ``k_r``, so the running join holds ``a.k`` and
    ``a.k_r``; the hop out of ``a`` on ``k`` must probe ``b`` with ``a.k``.
    A name search in the running join takes the last ``a.k``-like column,
    ``a.k_r``, which matches no key of ``b``; the row-map chain reads
    ``a.k`` from ``a``'s build table by its exact name.
    """

    EXPECTED = [1.5 * i for i in range(12)]

    @pytest.fixture
    def drg(self):
        ids = list(range(12))
        base = Table({"id": ids, "label": [i % 2 for i in ids]}, name="base")
        a = Table(
            {"id": ids, "k": [i + 10 for i in ids], "k_r": [i + 100 for i in ids]},
            name="a",
        )
        b = Table({"k": [i + 10 for i in ids], "f": self.EXPECTED}, name="b")
        return DatasetRelationGraph.from_constraints(
            [base, a, b],
            [
                KFKConstraint("base", "id", "a", "id"),
                KFKConstraint("a", "k", "b", "k"),
            ],
        )

    def test_materialize_path(self, drg):
        path = path_of(drg, ("base", "a"), ("a", "b"))
        table, __ = JoinEngine(drg).materialize_path(path, drg.table("base"))
        assert table.column("b.f").to_list() == self.EXPECTED

    def test_discover_ranks_the_two_hop_path_complete(self, drg):
        discovery = AutoFeat(drg, AutoFeatConfig()).discover("base", "label")
        two_hop = [v for v in discovery.verdicts if v.path.length == 1]
        assert [v.kind for v in two_hop] == ["ranked"]
        assert two_hop[0].ranked.completeness == 1.0
