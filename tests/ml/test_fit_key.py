"""``fit_key``: the content address of one top-k fit.

A fit is a pure function of what :func:`evaluate_accuracy` receives, so
the service memoises it under :func:`fit_key` of the same arguments.  The
key must change whenever any byte the fit reads changes, must not change
for anything the fit does not read (the request's ``tau`` / ``kappa``),
and must not depend on the process's string-hash seed.
"""

import builtins
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import AutoFeat, Column, DType, Table
from repro.core import OutcomeMemo
from repro.ml import evaluate_accuracy, fit_key

N = 40


def make_table(**changed: Column) -> Table:
    """The fit input, with the ``changed`` columns in place of their own."""
    rng = np.random.default_rng(3)
    label = rng.integers(0, 2, N)
    x = label + rng.normal(0, 0.5, N)
    x[rng.random(N) < 0.2] = np.nan
    columns = {
        "x": x,
        "k": rng.integers(0, 5, N),
        "flag": rng.random(N) < 0.5,
        "city": [["oslo", "lima", "pune", None][i % 4] for i in range(N)],
        "label": [["yes", "no"][int(v)] for v in label],
    }
    return Table({**columns, **changed}, name="t")


FEATURES = ["x", "k", "flag", "city"]


def key(table, **overrides):
    args = {"model_name": "knn", "feature_names": FEATURES, "seed": 0, **overrides}
    return fit_key(table, "label", **args)


class TestSignature:
    def test_parameters_are_evaluate_accuracys(self):
        assert list(inspect.signature(fit_key).parameters.values()) == list(
            inspect.signature(evaluate_accuracy).parameters.values()
        )


class TestEveryTrainingInputMisses:
    def test_equal_bytes_hit(self):
        table = make_table()
        copy = Table({n: list(table.column(n).to_list()) for n in table.column_names})
        assert key(copy) == key(table)
        # The default feature list is the one the fit resolves to.
        assert fit_key(table, "label", "knn") == key(table)

    def test_one_cell(self):
        table = make_table()
        values = table.column("k").values.copy()
        values[7] += 1
        assert key(make_table(k=Column(values))) != key(table)

    def test_one_string_cell(self):
        table = make_table()
        cities = table.column("city").to_list()
        cities[1] = "lim"
        assert key(make_table(city=Column(cities))) != key(table)

    def test_one_mask_bit(self):
        table = make_table()
        column = table.column("k")
        mask = column.mask.copy()
        mask[np.flatnonzero(column.values == 0)[0]] = True  # same value bytes
        masked = Column(column.values, DType.INT, mask)
        assert np.array_equal(masked.values, column.values)
        assert key(make_table(k=masked)) != key(table)

    def test_one_label(self):
        table = make_table()
        labels = table.column("label").to_list()
        labels[5] = "no" if labels[5] == "yes" else "yes"
        assert key(make_table(label=Column(labels))) != key(table)

    @pytest.mark.parametrize("override", [{"model_name": "linear_l1"}, {"seed": 1}])
    def test_model_and_seed(self, override):
        table = make_table()
        assert key(table, **override) != key(table)

    def test_feature_order(self):
        table = make_table()
        assert key(table, feature_names=FEATURES[::-1]) != key(table)

    def test_dtype(self):
        table = make_table()
        as_float = Column(table.column("k").values.astype(float))
        assert key(make_table(k=as_float)) != key(table)

    def test_string_boundaries(self):
        # Length-prefixed values: moving a character between cells misses.
        a = Table({"s": ["ab", "c"], "label": [0, 1]})
        b = Table({"s": ["a", "bc"], "label": [0, 1]})
        assert fit_key(a, "label") != fit_key(b, "label")


class TestKeyIgnoresWhatTheFitDoesNotRead:
    def test_tau_and_kappa_variants_share_fits(self):
        from tests.service.test_memo import AUGMENT_CONFIG, split_lake
        from repro.discovery import ComaMatcher
        from repro.graph import DatasetRelationGraph

        base, label, lake = split_lake()
        drg = DatasetRelationGraph.from_discovery(list(lake), ComaMatcher(), threshold=0.55)
        memo = OutcomeMemo()
        first = AutoFeat(drg, AUGMENT_CONFIG, memo=memo).augment(base, label, "knn")
        for variant in ({"tau": 0.6}, {"kappa": 14}):
            config = dataclasses.replace(AUGMENT_CONFIG, **variant)
            before = memo.counters()["train"]
            again = AutoFeat(drg, config, memo=memo).augment(base, label, "knn")
            after = memo.counters()["train"]
            # The variant selected the same features, so it trains the
            # same matrices: every fit hits, and answers as the first.
            assert [t.ranked.selected_features for t in again.trained] == [
                t.ranked.selected_features for t in first.trained
            ]
            assert after.hits - before.hits == len(first.trained) > 0
            assert after.misses == before.misses
            assert [t.accuracy for t in again.trained] == [
                t.accuracy for t in first.trained
            ]


_REMOTE = """
import json
from tests.ml.test_fit_key import make_table, key
print(json.dumps(key(make_table()).hex()))
"""


class TestHashSeed:
    def test_key_is_independent_of_pythonhashseed(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        root = str(Path(__file__).resolve().parents[2])
        keys = []
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
                timeout=120,
                check=True,
            )
            keys.append(json.loads(done.stdout))
        assert keys[0] == keys[1] == key(make_table()).hex()

    def test_no_string_is_hashed(self, monkeypatch):
        table = make_table()
        expected = key(table)

        def boom(value):
            raise AssertionError(f"fit_key hashed {value!r}")

        monkeypatch.setattr(builtins, "hash", boom)
        assert key(table) == expected
