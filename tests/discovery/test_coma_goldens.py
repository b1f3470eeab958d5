"""The matchers reproduce the frozen per-pair scorer byte for byte.

``goldens/coma_matches.json`` was generated at c93c6dd, before name
features, the name-score memo and the bit-vector Levenshtein existed (see
``tests/discovery/coma_goldens.py`` for the command).  Never regenerate it
from the current code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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


FLOORS = (0.3, 0.55, 0.7, 0.9, 1.0)


@pytest.mark.parametrize("lake", LAKES)
def test_floor_keeps_exactly_the_golden_rows_reaching_it(goldens, lake):
    # A floor may only drop rows: the rest keep their floats and order.
    profiles = lake_profiles(lake)
    for name, factory in MATCHERS.items():
        for floor in FLOORS:
            matcher = factory()
            want = {}
            for pair, rows in goldens[f"{lake}/{name}"].items():
                kept = [row for row in rows if float.fromhex(row[2]) >= floor]
                if kept:
                    want[pair] = kept
            got = match_cells(profiles, matcher, floor)
            assert list(got) == list(want), (lake, name, floor)
            for pair, rows in got.items():
                assert rows == want[pair], (lake, name, floor, pair)


def test_warm_memo_reproduces_frozen_output(goldens):
    # One long-lived matcher across lakes: name-score hits from an earlier
    # lake must not leak into a later one's floats.
    matcher = MATCHERS["coma"]()
    for lake in ("credit", "covertype", "credit"):
        assert match_cells(lake_profiles(lake), matcher) == goldens[f"{lake}/coma"]


_REMOTE = """
import json
from repro.datasets import make_wide_lake
from repro.discovery import LazoMatcher
from repro.graph import DatasetRelationGraph
from tests.discovery.coma_goldens import _generate
drg = DatasetRelationGraph.from_discovery(make_wide_lake(16).tables, LazoMatcher())
print(json.dumps({"goldens": _generate(), "lazo": drg.edge_fingerprint()}))
"""


class TestHashSeed:
    def test_matching_is_independent_of_pythonhashseed(self, goldens):
        # Sketches and table unions are frozensets of strings, whose
        # iteration order follows PYTHONHASHSEED; no score or edge may.
        src = str(Path(repro.__file__).resolve().parent.parent)
        root = str(Path(__file__).resolve().parents[2])
        runs = []
        for seed in ("0", "4242"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join((src, root)),
            }
            done = subprocess.run(
                [sys.executable, "-c", _REMOTE],
                capture_output=True,
                env=env,
                timeout=300,
                check=True,
            )
            runs.append(json.loads(done.stdout))
        for run in runs:
            assert run["goldens"] == goldens
        assert runs[0]["lazo"] and runs[0]["lazo"] == runs[1]["lazo"]
