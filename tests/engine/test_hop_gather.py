"""A discovery hop is a gather: probe + gather ≡ join + ``numeric_matrix``.

A discovery hop never builds the joined table to score it: it probes
along its path's row-map chain (``probe_hop(..., row_map=)``), reads the
completeness off the row map (:meth:`JoinIndex.null_count`) and gathers
the candidates' float matrix and rank codes (:meth:`JoinIndex.gather`);
the selection kernels rank from those codes.  These tests hold each piece
to what the table path computes — byte for byte, over every dtype, nulls,
NaN, ±inf, −0.0, unmatched rows and an empty build side — and pin the
whole traversal at ``max_path_length`` 1, 2 and 3 to the rankings the
table-per-hop traversal produced.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AutoFeat, AutoFeatConfig, completeness
from repro.dataframe import Column, DType, JoinIndex, Table
from repro.dataframe.encoding import rank_codes
from repro.engine import JoinEngine
from repro.graph import DatasetRelationGraph, JoinPath, KFKConstraint
from repro.selection import batch_spearman_scores, discretize

from tests.conftest import ROUTES, cpus
from tests.oracle.selection import relevance_scores

_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0]

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def payload_columns(draw, n):
    """One build payload column of a drawn dtype, with nulls and specials."""
    dtype = draw(st.sampled_from(list(DType)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if dtype is DType.STRING:
        vocabulary = st.sampled_from(["a", "b", "c", "ä", "10", "9"])
        words = draw(st.lists(vocabulary, min_size=n, max_size=n))
        values = [None if m else w for w, m in zip(words, mask)]
        return Column(values, DType.STRING, mask)
    if dtype is DType.BOOL:
        values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return Column(np.array(values, dtype=bool), DType.BOOL, mask)
    if dtype is DType.INT:
        values = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        return Column(np.array(values, dtype=np.int64), DType.INT, mask)
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_SPECIAL_FLOATS),
                st.floats(-4, 4, allow_nan=False).map(lambda v: round(v, 1)),
            ),
            min_size=n,
            max_size=n,
        )
    )
    # An explicit mask keeps an unmasked NaN a value, not a null.
    return Column(np.array(values, dtype=np.float64), DType.FLOAT, mask)


@st.composite
def hops(draw):
    """(left, index, row_map, build column names): one probed hop."""
    n_build = draw(st.sampled_from([0, 1, 3, 8, 20]))
    keys = draw(st.lists(st.integers(0, 12), min_size=n_build, max_size=n_build))
    columns = {"k": Column(np.array(keys, dtype=np.int64))}
    for j in range(draw(st.integers(1, 4))):
        columns[f"c{j}"] = draw(payload_columns(n_build))
    build = Table(columns, name="r")
    n_left = draw(st.integers(0, 25))
    probe = draw(st.lists(st.integers(0, 16), min_size=n_left, max_size=n_left))
    left = Table(
        {"k": Column(np.array(probe, dtype=np.int64)), "x": np.arange(float(n_left))},
        name="l",
    )
    index = JoinIndex.build(build, "k", seed=draw(st.integers(0, 3)))
    return left, index, index.probe(left.column("k"))


def _reference_discretize(values, n_bins=10):
    """The ``np.unique`` + ``searchsorted`` discretiser, written out."""
    x = np.asarray(values, dtype=np.float64)
    codes = np.full(x.shape, -1, dtype=np.int64)
    finite = np.isfinite(x)
    if not finite.any():
        return codes
    present = x[finite]
    uniques = np.unique(present)
    if len(uniques) <= 32:
        codes[finite] = np.searchsorted(uniques, present)
        return codes
    lo, hi = float(present.min()), float(present.max())
    if np.isfinite(hi - lo):
        scaled = (present - lo) / (hi - lo)
    else:
        scaled = (present / 2 - lo / 2) / (hi / 2 - lo / 2)
    codes[finite] = np.minimum((scaled * n_bins).astype(np.int64), n_bins - 1)
    return codes


class TestGatherEqualsJoinedTable:
    @given(hops())
    @SETTINGS
    def test_matrix_is_numeric_matrix_byte_for_byte(self, hop):
        left, index, row_map = hop
        joined = index.attach(left, row_map)
        names = index.output_names(left.column_names)
        matrix, codes = index.gather(row_map, [name for name, __ in names])
        expected = joined.numeric_matrix([out for __, out in names])
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()
        assert codes.shape == (len(names), left.n_rows)

    @given(hops())
    @SETTINGS
    def test_codes_order_like_the_values(self, hop):
        left, index, row_map = hop
        names = [name for name, __ in index.output_names(left.column_names)]
        matrix, codes = index.gather(row_map, names)
        for j in range(len(names)):
            x, c = matrix[:, j], codes[j]
            finite = np.isfinite(x)
            assert ((c >= 0) == finite).all()
            xs, cs = x[finite], c[finite]
            assert ((cs[:, None] < cs[None, :]) == (xs[:, None] < xs[None, :])).all()
            assert ((cs[:, None] == cs[None, :]) == (xs[:, None] == xs[None, :])).all()

    @given(hops())
    @SETTINGS
    def test_null_count_is_the_joined_completeness(self, hop):
        left, index, row_map = hop
        joined = index.attach(left, row_map)
        contributed = [out for __, out in index.output_names(left.column_names)]
        nulls = sum(joined.column(name).null_count() for name in contributed)
        assert index.null_count(row_map) == nulls
        cells = left.n_rows * len(contributed)
        gathered = 1.0 if cells == 0 else 1.0 - index.null_count(row_map) / cells
        assert gathered == completeness(joined, contributed)

    @given(hops(), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_kernels_from_gathered_codes_are_bit_identical(self, hop, seed):
        left, index, row_map = hop
        names = [name for name, __ in index.output_names(left.column_names)]
        matrix, codes = index.gather(row_map, names)
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, left.n_rows).astype(float)
        if left.n_rows and rng.random() < 0.3:
            y[rng.random(left.n_rows) < 0.2] = np.nan
        from_codes = batch_spearman_scores(matrix, y, codes, rank_codes(y))
        assert from_codes.tolist() == batch_spearman_scores(matrix, y).tolist()
        assert from_codes.tolist() == relevance_scores(matrix, y, "spearman").tolist()
        for j in range(len(names)):
            binned = discretize(matrix[:, j], codes=codes[j])
            assert binned.tolist() == discretize(matrix[:, j]).tolist()
            assert binned.tolist() == _reference_discretize(matrix[:, j]).tolist()

    def test_string_values_are_dense_over_the_present_codes(self):
        build = Table(
            {"k": [1, 2, 3, 4], "s": ["d", "a", "c", "b"]}, name="r"
        )
        index = JoinIndex.build(build, "k")
        left = Table({"k": [4, 3, 3, 9]}, name="l")
        row_map = index.probe(left.column("k"))
        matrix, codes = index.gather(row_map, ["s"])
        # "b" and "c" are present: they encode 0 and 1, not 1 and 2.
        assert matrix[:, 0].tolist()[:3] == [0.0, 1.0, 1.0]
        assert np.isnan(matrix[3, 0])
        assert codes[0].tolist() == [1, 2, 2, -1]

    @given(
        st.lists(
            st.floats(-1e308, 1e308) | st.sampled_from(_SPECIAL_FLOATS), max_size=60
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_discretize_matches_the_unique_searchsorted_reference(self, values):
        x = np.array(values, dtype=np.float64)
        assert discretize(x).tolist() == _reference_discretize(x).tolist()


# -- the column-name collision ------------------------------------------------


def collision_lake(n=300):
    """``base`` already holds a column named ``sat.f``; ``sat.f`` carries
    the label, the base's column is noise."""
    rng = np.random.default_rng(0)
    label = rng.integers(0, 2, n)
    base = Table(
        {"id": np.arange(n), "sat.f": rng.normal(0, 1, n), "label": label}, name="base"
    )
    sat = Table({"id": np.arange(n), "f": label + rng.normal(0, 0.3, n)}, name="sat")
    return DatasetRelationGraph.from_constraints(
        [base, sat], [KFKConstraint("base", "id", "sat", "id")]
    )


class TestColumnNameCollision:
    def test_apply_hop_reports_the_output_names(self):
        drg = collision_lake()
        edge = drg.best_join_options("base", "sat")[0]
        base = drg.table("base")
        joined, contributed = JoinEngine(drg).apply_hop(base, edge, "base")
        assert contributed == ["sat.id", "sat.f_r"]
        satellite = drg.table("sat").column("f")
        assert joined.column("sat.f_r").to_list() == satellite.to_list()
        assert joined.column("sat.f") == base.column("sat.f")

    @pytest.mark.parametrize("route", ROUTES)
    def test_the_satellite_column_is_ranked(self, route):
        config = AutoFeatConfig(sample_size=300)
        with cpus(ROUTES[route]):
            result = AutoFeat(collision_lake(), config).discover("base", "label")
        (ranked,) = result.ranked_paths
        assert ranked.relevant_names == ("sat.f_r",)
        assert ranked.selected_features == ("sat.f_r",)

    def test_hop_gathers_the_satellite_column(self):
        drg = collision_lake()
        edge = drg.best_join_options("base", "sat")[0]
        base = drg.table("base")
        index, row_map = JoinEngine(drg).probe_hop(base, edge, "base")
        names = index.output_names(base.column_names)
        assert names == [("sat.id", "sat.id"), ("sat.f", "sat.f_r")]
        matrix, __ = index.gather(row_map, ["sat.f"])
        expected = drg.table("sat").column("f").to_float()
        assert matrix[:, 0].tolist() == expected.tolist()


# -- whole traversals -----------------------------------------------------------


def mixed_lake(n=240, seed=5):
    """A chain and a fork of satellites over every dtype, with nulls, NaN,
    ±inf, −0.0, duplicate keys (deduplicated) and keys the base misses."""
    rng = np.random.default_rng(seed)
    signal = rng.normal(0, 1, n)
    label = (signal + rng.normal(0, 0.5, n) > 0).astype(int)
    ids = np.arange(n)

    def with_specials(values):
        values = values.copy()
        pick = rng.random(len(values))
        values[pick < 0.05] = np.nan
        values[(pick >= 0.05) & (pick < 0.07)] = np.inf
        values[(pick >= 0.07) & (pick < 0.09)] = -0.0
        return values

    # Every key but a few the base misses, some twice (deduplicated).
    a_rows = np.concatenate([rng.permutation(n + 40)[: n], rng.choice(n, 40)])
    a = Table(
        {
            "a_key": a_rows,
            "b_key": a_rows % 97,
            "score": with_specials(np.round(signal[a_rows % n] * 3) / 3),
            "grade": Column(
                [None if rng.random() < 0.1 else "xyz"[int(v) % 3] for v in a_rows],
                DType.STRING,
            ),
            "flag": (a_rows % 3 == 0),
        },
        name="a",
    )
    b = Table(
        {
            "b_key": np.arange(97),
            "c_key": rng.integers(0, 50, 97),
            "level": Column(
                [None if k % 11 == 0 else int(k % 7) for k in range(97)], DType.INT
            ),
        },
        name="b",
    )
    c = Table(
        {
            "c_key": np.arange(45),
            "depth": with_specials(rng.normal(0, 1, 45)),
            "kind": [f"k{v}" for v in rng.integers(0, 40, 45)],
        },
        name="c",
    )
    kept = ids[: n * 4 // 5]
    d = Table(
        {"d_key": kept, "echo": signal[kept] + rng.normal(0, 0.2, len(kept))}, name="d"
    )
    base = Table(
        {
            "a_key": ids,
            "d_key": ids,
            "noise": rng.normal(0, 1, n),
            "label": label,
        },
        name="base",
    )
    return DatasetRelationGraph.from_constraints(
        [base, a, b, c, d],
        [
            KFKConstraint("base", "a_key", "a", "a_key"),
            KFKConstraint("base", "d_key", "d", "d_key"),
            KFKConstraint("a", "b_key", "b", "b_key"),
            KFKConstraint("b", "c_key", "c", "c_key"),
            KFKConstraint("d", "d_key", "a", "a_key"),
        ],
    )


class TestRowMapChainEqualsApplyHop:
    """A row-map chain reports what ``apply_hop``'s table says, hop by hop."""

    @pytest.mark.parametrize("tau", [0.0, 0.8])
    def test_first_and_second_level_hops(self, tau):
        drg = mixed_lake()
        engine = JoinEngine(drg)
        checked = 0
        for first, second in (("a", "b"), ("d", "a"), ("a", "d")):
            path, table = JoinPath("base"), drg.table("base")
            source, row_map = table, None
            for target in (first, second):
                edge = drg.best_join_options(path.terminal, target)[0]
                joined, contributed = engine.apply_hop(table, edge, "base", path=path)
                index, row_map = engine.probe_hop(
                    source, edge, "base", path=path, row_map=row_map
                )
                names = index.output_names(table.column_names)
                assert [out for __, out in names] == contributed
                cells = len(row_map) * len(names)
                gathered = 1.0 - index.null_count(row_map) / cells
                assert gathered == completeness(joined, contributed)
                checked += 1
                if gathered < tau:
                    break
                key = f"{edge.target}.{edge.target_column}"
                scored = [(n, out) for n, out in names if n != key]
                assert [out for __, out in scored] == [
                    c for c in contributed if c != key
                ]
                matrix, codes = index.gather(row_map, [n for n, __ in scored])
                expected = joined.numeric_matrix([out for __, out in scored])
                assert matrix.tobytes() == expected.tobytes()
                assert codes.shape == (len(scored), joined.n_rows)
                path, table = path.extend(edge), joined
                source = index.build_table
        assert checked >= 4

    def test_nothing_is_gathered_below_tau(self, monkeypatch):
        gathered = []
        original = JoinIndex.gather

        def counting(self, row_map, names):
            gathered.append(names)
            return original(self, row_map, names)

        monkeypatch.setattr(JoinIndex, "gather", counting)
        config = AutoFeatConfig(sample_size=200, tau=0.8, max_path_length=3)
        result = AutoFeat(mixed_lake(), config).discover("base", "label")
        kinds = [v.kind for v in result.verdicts]
        assert "pruned_tau" in kinds
        assert len(gathered) == kinds.count("ranked")


def ranking_digest(max_path_length, route="serial"):
    """SHA-256 of every ranked path's hop sequence, exact score,
    completeness, selected and relevant names and the run's counters."""
    config = AutoFeatConfig(sample_size=200, max_path_length=max_path_length)
    with cpus(ROUTES[route]):
        result = AutoFeat(mixed_lake(), config).discover("base", "label")
    rows = [
        (
            r.path.describe(),
            r.score.hex(),
            r.completeness.hex(),
            r.selected_features,
            r.relevant_names,
            tuple(s.hex() for s in r.relevance_scores),
            tuple(s.hex() for s in r.redundancy_scores),
        )
        for r in result.ranked_paths
    ]
    counters = (
        result.n_paths_explored,
        result.n_paths_pruned_quality,
        result.n_joins_pruned_similarity,
    )
    return len(rows), hashlib.sha256(repr((rows, counters)).encode()).hexdigest()


#: ``ranking_digest`` at ``max_path_length`` 1, 2 and 3, recorded (on one
#: CPU and two alike) with the traversal that joined a full table on every hop
#: and ranked ``joined.numeric_matrix(...)`` with an argsort.
FROZEN_DIGESTS = {
    1: (2, "ef2cd90e32d280291d8ba6c293976c5e1073aa70911bfb3587c9dc0c9759eaed"),
    2: (5, "28ecd1a3c7603c8302a170e51859b619071d29fd604f36acf887f73e468348cb"),
    3: (7, "4c9773e1c609465a279de2c63083e54cc18ef7f46217834f705ec671a0fa3c70"),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("max_path_length", sorted(FROZEN_DIGESTS))
def test_discover_equals_the_table_per_hop_traversal(max_path_length, route):
    assert ranking_digest(max_path_length, route) == FROZEN_DIGESTS[max_path_length]
