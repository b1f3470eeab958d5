"""Out-of-core hop execution: chunked probes, spill round-trips, metrics."""

import glob
import os

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Column, DType, JoinIndex, Table
from repro.engine import JoinEngine, SpillManager, chunked_left_join, estimate_table_bytes
from repro.engine.stats import EngineStats
from repro.graph import DatasetRelationGraph, KFKConstraint
from repro.obs.tracer import Tracer


def make_pair(n_left=500, n_right=120, seed=0):
    rng = np.random.default_rng(seed)
    left = Table(
        {
            "k": rng.integers(0, n_right * 2, n_left),
            "x": rng.normal(0, 1, n_left),
            "s": Column(
                np.array([f"v{i % 7}" for i in range(n_left)], dtype=object),
                dtype=DType.STRING,
            ),
        },
        name="L",
    )
    right = Table(
        {
            "k": rng.permutation(n_right * 2)[:n_right],
            "y": rng.normal(0, 1, n_right),
            "tag": Column(
                np.array([f"t{i % 5}" for i in range(n_right)], dtype=object),
                dtype=DType.STRING,
            ),
        },
        name="R",
    )
    return left, right


def tables_identical(a: Table, b: Table) -> bool:
    if a.column_names != b.column_names or a.n_rows != b.n_rows:
        return False
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype is not cb.dtype or not np.array_equal(ca.mask, cb.mask):
            return False
        if ca.dtype is DType.STRING:
            pairs = zip(ca.values, cb.values, ca.mask)
            if not all(m or x == y for x, y, m in pairs):
                return False
        elif not np.array_equal(ca.values[~ca.mask], cb.values[~cb.mask]):
            return False
    return True


class TestChunkedLeftJoin:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 64, 499, 500, 1000])
    def test_bit_identical_to_one_shot(self, chunk_rows):
        left, right = make_pair()
        index = JoinIndex.build(right, "k", seed=3)
        whole = index.left_join(left, "k")
        chunked = chunked_left_join(index, left, "k", chunk_rows=chunk_rows)
        assert tables_identical(whole, chunked)

    def test_spill_path_identical_and_counted(self, tmp_path):
        left, right = make_pair(n_left=800)
        index = JoinIndex.build(right, "k", seed=1)
        whole = index.left_join(left, "k")
        stats = EngineStats()
        chunked = chunked_left_join(
            index,
            left,
            "k",
            chunk_rows=50,
            memory_budget_bytes=1,  # force every completed partition out
            spill_dir=str(tmp_path),
            stats=stats,
        )
        assert tables_identical(whole, chunked)
        assert stats.chunks_executed == 16
        assert stats.partitions_spilled > 0
        assert stats.spill_bytes_written > 0
        assert stats.spill_bytes_read == stats.spill_bytes_written
        assert stats.peak_resident_bytes > 0

    def test_no_budget_never_spills(self):
        left, right = make_pair()
        index = JoinIndex.build(right, "k", seed=0)
        stats = EngineStats()
        chunked_left_join(index, left, "k", chunk_rows=100, stats=stats)
        assert stats.chunks_executed == 5
        assert stats.partitions_spilled == 0
        assert stats.peak_resident_bytes > 0

    def test_spill_files_cleaned_up(self, tmp_path):
        left, right = make_pair()
        index = JoinIndex.build(right, "k", seed=0)
        chunked_left_join(
            index,
            left,
            "k",
            chunk_rows=50,
            memory_budget_bytes=1,
            spill_dir=str(tmp_path),
        )
        assert glob.glob(str(tmp_path / "**" / "*.pkl"), recursive=True) == []

    def test_small_table_takes_one_shot_path(self):
        left, right = make_pair(n_left=10)
        index = JoinIndex.build(right, "k", seed=0)
        stats = EngineStats()
        out = chunked_left_join(index, left, "k", chunk_rows=100, stats=stats)
        assert stats.chunks_executed == 0
        assert out.n_rows == 10

    def test_chunk_spans_and_spill_events(self, tmp_path):
        left, right = make_pair()
        index = JoinIndex.build(right, "k", seed=0)
        tracer = Tracer(enabled=True)
        with tracer.span("hop"):
            chunked_left_join(
                index,
                left,
                "k",
                chunk_rows=100,
                memory_budget_bytes=1,
                spill_dir=str(tmp_path),
                tracer=tracer,
            )
        names = [s.name for s in tracer.iter_spans()]
        assert names.count("chunk") == 5
        assert "concat" in names
        events = [e["name"] for s in tracer.iter_spans() for e in s.events]
        assert "spill" in events and "restore" in events


class TestSpillManager:
    def test_round_trip_preserves_everything(self, tmp_path):
        left, _ = make_pair(n_left=40)
        masked = left.with_column(
            "x",
            Column(
                left.column("x").values,
                dtype=DType.FLOAT,
                mask=np.arange(40) % 3 == 0,
            ),
        )
        with SpillManager(str(tmp_path)) as spiller:
            handle = spiller.spill(masked)
            restored = spiller.restore(handle)
            assert tables_identical(masked, restored)
            assert spiller.partitions_spilled == 1
            assert spiller.bytes_written > 0
            assert spiller.bytes_read == spiller.bytes_written

    def test_close_removes_directory(self, tmp_path):
        left, _ = make_pair(n_left=5)
        spiller = SpillManager(str(tmp_path))
        spiller.spill(left)
        assert len(os.listdir(tmp_path)) == 1
        spiller.close()
        assert os.listdir(tmp_path) == []

    def test_estimate_is_positive_and_monotone(self):
        left, _ = make_pair(n_left=100)
        small = left.take(np.arange(10))
        assert 0 < estimate_table_bytes(small) < estimate_table_bytes(left)


def chunky_lake(n=600, seed=5):
    rng = np.random.default_rng(seed)
    ids = np.arange(n)
    a_key = rng.permutation(n) + 1_000
    shared = rng.permutation(n) + 9_000
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.3, n)) > 0).astype(int)
    base = Table(
        {"id": ids, "a_key": a_key, "weak": rng.normal(0, 1, n), "label": label},
        name="base",
    )
    a = Table(
        {"a_key": a_key, "shared_key": shared, "a_noise": rng.normal(0, 1, n)},
        name="a",
    )
    c = Table({"shared_key": shared, "signal": signal}, name="c")
    return DatasetRelationGraph.from_constraints(
        [base, a, c],
        [
            KFKConstraint("base", "a_key", "a", "a_key"),
            KFKConstraint("a", "shared_key", "c", "shared_key"),
        ],
    )


class TestEngineIntegration:
    def test_materialize_path_parity_and_counters(self, tmp_path):
        drg = chunky_lake()
        plain = JoinEngine(drg, seed=7)
        chunked = JoinEngine(
            drg,
            seed=7,
            chunk_rows=100,
            memory_budget_bytes=1,
            spill_dir=str(tmp_path),
        )
        from repro.graph import JoinPath

        path = JoinPath("base").extend(drg.best_join_options("base", "a")[0])
        base = drg.table("base")
        expect, _ = plain.materialize_path(path, base)
        got, _ = chunked.materialize_path(path, base)
        assert tables_identical(expect, got)
        snap = chunked.snapshot()
        assert snap.chunks_executed == 6
        assert snap.partitions_spilled > 0
        assert snap.spill_bytes_written > 0
        assert snap.peak_resident_bytes > 0
        assert plain.snapshot().chunks_executed == 0

    def test_worker_view_inherits_chunk_knobs(self, tmp_path):
        engine = JoinEngine(
            chunky_lake(),
            chunk_rows=64,
            memory_budget_bytes=123,
            spill_dir=str(tmp_path),
        )
        view = engine.worker_view()
        assert view.chunk_rows == 64
        assert view.memory_budget_bytes == 123
        assert view.spill_dir == str(tmp_path)

    def test_discover_parity_chunked_vs_in_core(self, tmp_path):
        drg = chunky_lake()
        base_cfg = AutoFeatConfig(sample_size=200, enable_tracing=False, seed=2)
        plain = AutoFeat(drg, config=base_cfg).discover("base", "label")
        chunked = AutoFeat(
            drg,
            config=base_cfg.with_overrides(
                chunk_rows=64,
                memory_budget_bytes=4096,
                spill_dir=str(tmp_path),
            ),
        ).discover("base", "label")
        assert [
            (p.path.describe(), round(p.score, 12)) for p in plain.ranked_paths
        ] == [(p.path.describe(), round(p.score, 12)) for p in chunked.ranked_paths]
        assert chunked.engine_stats.chunks_executed > 0

    def test_stats_publish_and_roundtrip(self):
        from repro.engine.stats import ExecutionStats
        from repro.obs.metrics import MetricsRegistry

        stats = ExecutionStats(
            hops_executed=2,
            chunks_executed=5,
            partitions_spilled=3,
            spill_bytes_written=100,
            spill_bytes_read=100,
            peak_resident_bytes=77,
        )
        registry = stats.publish(MetricsRegistry())
        assert registry.value("engine.chunks_executed") == 5
        assert registry.value("engine.partitions_spilled") == 3
        assert registry.value("engine.peak_resident_bytes") == 77
        assert ExecutionStats.from_dict(stats.as_dict()) == stats
        merged = stats.merged(ExecutionStats(peak_resident_bytes=50, chunks_executed=1))
        assert merged.chunks_executed == 6
        assert merged.peak_resident_bytes == 77  # max, not sum

    def test_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="chunk_rows"):
            AutoFeatConfig(chunk_rows=0)
        with pytest.raises(ConfigError, match="memory_budget_bytes"):
            AutoFeatConfig(memory_budget_bytes=-1)

    def test_encode_counters_on_shared_cache(self):
        from repro.engine import HopCache

        drg = chunky_lake()
        cache = HopCache()
        engine = JoinEngine(drg, cache=cache)
        edge = drg.best_join_options("base", "a")[0]
        engine.hop_index(edge)
        engine.hop_index(edge)
        # Keys are encoded once per build; the second lookup is a hit.
        counters = cache.counters()
        assert counters["builds"] == 1
        assert counters["hits"] == 1
