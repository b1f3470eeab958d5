"""The lake passes against the per-pair scans they replaced.

``ComaMatcher.match_lake_profiles`` scores only the column pairs whose
sketches share a token and the name pairs whose bound can clear the
floor; ``tests/oracle/coma.py`` scores every column pair of every table
pair.  Their outputs must be equal row for row, floats included, on random
lakes: every dtype and nulls, names repeated within a lake and shared
across tables, floors on both sides of ``name_weight · 2/3``, and both
key-like settings, for the whole lake and for one table against the rest.

``LazoMatcher.match_lake_profiles`` buckets every column's band keys once
per lake; ``tests/oracle/lazo.py`` bands each table pair on its own.  They
are held to the same rows on the same lakes, over several banding layouts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.dataframe import Column, DType, Table
from repro.datasets import make_wide_lake
from repro.discovery import ComaMatcher, LazoMatcher, coma, profile_table
from tests.matchers import pair_matches
from tests.oracle import lazo
from tests.oracle.coma import lake_scan, pair_scan

FLOORS = [0.0, 0.3, 0.4, 0.55, 0.7, 1.0]

#: Names that share trigrams and tokens (``user_id`` / ``UserID``), share
#: nothing (``zz``), differ by case only, or are one character long.
NAMES = [
    "id", "user_id", "UserID", "user", "k0001", "k0002", "t0001_k0001",
    "value", "Value", "zz", "a", "region_code", "code",
]

#: Small domains so that tables share tokens often; ``"1"`` is the token of
#: the string "1", the int 1 and the float 1.0 alike, and nulls are none.
VALUES = {
    DType.STRING: st.sampled_from(["1", "a", " A", "b", "2.5", "true", ""]) | st.none(),
    DType.INT: st.integers(-2, 6) | st.none(),
    DType.FLOAT: st.integers(-2, 6).map(float)
    | st.sampled_from([2.5, float("nan")])
    | st.none(),
    DType.BOOL: st.booleans() | st.none(),
}


@st.composite
def lakes(draw):
    """2-5 tables of 0-4 columns over 0-14 rows, names drawn from NAMES."""
    tables = []
    for t in range(draw(st.integers(2, 5))):
        n_rows = draw(st.integers(0, 14))
        names = draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True))
        columns = {}
        for name in names:
            dtype = draw(st.sampled_from(list(VALUES)))
            values = draw(st.lists(VALUES[dtype], min_size=n_rows, max_size=n_rows))
            columns[name] = Column(values, dtype=dtype)
        tables.append(Table(columns, name=f"t{t}"))
    return [profile_table(table) for table in tables]


def same(got: dict, want: dict) -> bool:
    """Equal table pairs with equal match lists; ``repr`` keeps every float bit."""
    return repr(sorted(got.items())) == repr(sorted(want.items()))


matchers = st.builds(
    ComaMatcher,
    key_like_only=st.booleans(),
    min_score=st.sampled_from([0.0, 0.3]),
)


class TestLakePassEqualsPairScan:
    @settings(max_examples=300, deadline=None)
    @given(
        profiles=lakes(),
        other=lakes(),
        matcher=matchers,
        floor=st.sampled_from(FLOORS),
    )
    def test_whole_lake(self, profiles, other, matcher, floor):
        # The matcher has matched another lake first: nothing it kept may leak.
        matcher.match_lake_profiles(other, floor)
        lake = matcher.match_lake_profiles(profiles, floor)
        assert same(lake.pairs, lake_scan(matcher, profiles, floor))

    @settings(max_examples=300, deadline=None)
    @given(
        profiles=lakes(),
        matcher=matchers,
        floor=st.sampled_from(FLOORS),
        data=st.data(),
    )
    def test_one_table_against_the_rest(self, profiles, matcher, floor, data):
        focus = data.draw(st.integers(0, len(profiles) - 1))
        # A warm matcher, as in a service: the whole lake was matched first.
        matcher.match_lake_profiles(profiles, data.draw(st.sampled_from(FLOORS)))
        lake = matcher.match_lake_profiles(profiles, floor, focus)
        assert same(lake.pairs, lake_scan(matcher, profiles, floor, focus))



lazo_matchers = st.builds(
    lambda layout, min_score: LazoMatcher(*layout, min_score=min_score),
    layout=st.sampled_from([(16, 4), (1, 64), (64, 1), (8, 2)]),
    min_score=st.sampled_from([0.0, 0.3]),
)


def lazo_rows(lake, profiles) -> dict:
    """The pass's pairs as the oracle's ``(column_a, column_b, score)`` rows,
    after checking each match names its own two tables."""
    rows = {}
    for (i, j), matches in lake.pairs.items():
        names = {(m.table_a, m.table_b) for m in matches}
        assert names == {(profiles[i].table_name, profiles[j].table_name)}
        rows[i, j] = [(m.column_a, m.column_b, m.score) for m in matches]
    return rows


class TestLazoLakePassEqualsPairScan:
    @settings(max_examples=200, deadline=None)
    @given(
        profiles=lakes(),
        other=lakes(),
        matcher=lazo_matchers,
        floor=st.sampled_from(FLOORS),
    )
    def test_whole_lake(self, profiles, other, matcher, floor):
        matcher.match_lake_profiles(other, floor)
        lake = matcher.match_lake_profiles(profiles, floor)
        want = lazo.lake_scan(matcher, profiles, floor)
        assert same(lazo_rows(lake, profiles), want)

    @settings(max_examples=200, deadline=None)
    @given(
        profiles=lakes(),
        matcher=lazo_matchers,
        floor=st.sampled_from(FLOORS),
        data=st.data(),
    )
    def test_one_table_against_the_rest(self, profiles, matcher, floor, data):
        focus = data.draw(st.integers(0, len(profiles) - 1))
        matcher.match_lake_profiles(profiles, data.draw(st.sampled_from(FLOORS)))
        lake = matcher.match_lake_profiles(profiles, floor, focus)
        want = lazo.lake_scan(matcher, profiles, floor, focus)
        assert same(lazo_rows(lake, profiles), want)

    def test_wide_lake(self):
        # Real lake-sized candidate sets: every pair of make_wide_lake(12).
        profiles = [profile_table(t) for t in make_wide_lake(12, n_rows=80).tables]
        matcher = LazoMatcher()
        want = lazo.lake_scan(matcher, profiles, 0.55)
        lake = matcher.match_lake_profiles(profiles, 0.55)
        assert want and same(lazo_rows(lake, profiles), want)


class TestCounts:
    def test_counts_describe_the_work(self):
        ids = list(range(30))
        profiles = [
            profile_table(Table({"user_id": ids, "score": ids}, name="a")),
            profile_table(Table({"UserID": ids[5:]}, name="b")),
            profile_table(Table({"zz": [100 + i for i in ids]}, name="c")),
        ]
        lake = ComaMatcher().match_lake_profiles(profiles, 0.55)
        # a.user_id and a.score share tokens with b.UserID; c shares none.
        assert lake.table_pairs_sharing == 1
        assert lake.column_pairs_intersected == 2
        emitted = sum(map(len, lake.pairs.values()))
        assert lake.column_pairs_name_scored >= emitted > 0
        assert set(lake.pairs) == {(0, 1)}
        assert lake[0, 2] == [] and lake[1, 2] == []

    @pytest.mark.parametrize("floor", FLOORS)
    def test_a_table_with_itself(self, floor):
        # The lake of one table twice: same names, same sketches.
        profile = profile_table(Table({"id": [1, 2, 3], "k0001": [1, 1, 2]}, name="t"))
        matcher = ComaMatcher(min_score=0.0)
        assert repr(pair_matches(matcher, profile, profile, floor)) == repr(
            pair_scan(matcher, profile, profile, floor)
        )


class TestSharingPairs:
    """``_sharing_pairs`` against set intersections, in blocks of any size."""

    @settings(max_examples=200, deadline=None)
    @given(
        item_sets=st.lists(
            st.frozensets(st.sampled_from(["1", "2", "a", "ab", "#k0", "k00"])),
            max_size=8,
        ),
        data=st.data(),
        block=st.sampled_from([1, 2, 5, 1 << 20]),
    )
    def test_pairs_and_counts_equal_the_intersections(self, item_sets, data, block):
        size = len(item_sets)
        steps = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        group = np.cumsum(np.asarray(steps, dtype=np.int64))
        want = {}
        for g in range(len(item_sets)):
            for h in range(g + 1, len(item_sets)):
                shared = len(item_sets[g] & item_sets[h])
                if group[g] != group[h] and shared:
                    want[g * len(item_sets) + h] = shared
        original = coma.PAIR_BLOCK
        coma.PAIR_BLOCK = block
        try:
            codes, counts = coma._sharing_pairs(item_sets, group)
        finally:
            coma.PAIR_BLOCK = original
        assert dict(zip(codes.tolist(), counts.tolist())) == want
        assert codes.tolist() == sorted(want)

    def test_small_blocks_leave_the_lake_pass_unchanged(self, monkeypatch):
        profiles = [profile_table(t) for t in make_wide_lake(8, n_rows=60).tables]
        want = ComaMatcher().match_lake_profiles(profiles, 0.55)
        monkeypatch.setattr(coma, "PAIR_BLOCK", 3)
        assert ComaMatcher().match_lake_profiles(profiles, 0.55) == want
        assert want.pairs
