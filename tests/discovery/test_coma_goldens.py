"""The matchers reproduce the frozen per-pair scorer byte for byte.

``goldens/coma_matches.json`` was generated at c93c6dd, before name
features, the name-score memo and the bit-vector Levenshtein existed (see
``tests/discovery/coma_goldens.py`` for the command).  Never regenerate it
from the current code.
"""

import pytest

from tests.discovery.coma_goldens import (
    LAKES,
    MATCHERS,
    expected,
    lake_profiles,
    match_cells,
)


@pytest.fixture(scope="module")
def goldens():
    return expected()


def test_goldens_cover_the_matrix(goldens):
    assert set(goldens) == {f"{lake}/{name}" for lake in LAKES for name in MATCHERS}
    assert all(goldens.values())


@pytest.mark.parametrize("lake", LAKES)
def test_match_profiles_reproduces_frozen_output(goldens, lake):
    profiles = lake_profiles(lake)
    for name, factory in MATCHERS.items():
        cells = match_cells(profiles, factory())
        want = goldens[f"{lake}/{name}"]
        # Same table pairs in the same order, same rows in the same order.
        assert list(cells) == list(want), (lake, name)
        for pair, rows in cells.items():
            assert rows == want[pair], (lake, name, pair)


def test_warm_memo_reproduces_frozen_output(goldens):
    # One long-lived matcher across lakes: name-score hits from an earlier
    # lake must not leak into a later one's floats.
    matcher = MATCHERS["coma"]()
    for lake in ("credit", "covertype", "credit"):
        assert match_cells(lake_profiles(lake), matcher) == goldens[f"{lake}/coma"]
