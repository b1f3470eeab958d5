"""Unit tests for sampling and splitting."""

import numpy as np
import pytest

from repro.dataframe import Table, stratified_sample, train_test_split_indices
from repro.errors import SchemaError


def make_table(n=100, pos_fraction=0.3, seed=0):
    rng = np.random.default_rng(seed)
    label = (rng.random(n) < pos_fraction).astype(int)
    return Table({"x": rng.normal(size=n), "label": label}, name="t")


class TestStratifiedSample:
    def test_preserves_class_ratio(self):
        t = make_table(1000, pos_fraction=0.2, seed=1)
        out = stratified_sample(t, "label", 200, seed=1)
        ratio = np.mean(out.column("label").to_list())
        assert ratio == pytest.approx(0.2, abs=0.05)

    def test_returns_full_table_when_n_large(self):
        t = make_table(50)
        assert stratified_sample(t, "label", 500) is t

    def test_rare_class_kept(self):
        label = [0] * 99 + [1]
        t = Table({"x": list(range(100)), "label": label}, name="t")
        out = stratified_sample(t, "label", 10, seed=0)
        assert 1 in out.column("label").to_list()

    def test_nonpositive_raises(self):
        with pytest.raises(SchemaError):
            stratified_sample(make_table(), "label", 0)

    def test_all_null_labels_raise(self):
        t = Table({"x": [1, 2], "label": [None, None]}, name="t")
        with pytest.raises(SchemaError):
            stratified_sample(t, "label", 1)

    def test_deterministic(self):
        t = make_table(500)
        a = stratified_sample(t, "label", 100, seed=5)
        b = stratified_sample(t, "label", 100, seed=5)
        assert a == b

    @pytest.mark.parametrize("n", [3, 5, 500])
    def test_null_labels_dropped_whether_or_not_it_samples(self, n):
        t = Table({"x": list(range(6)), "label": [0, None, 1, 0, None, 1]}, name="t")
        out = stratified_sample(t, "label", n, seed=0)
        assert None not in out.column("label").to_list()
        if n >= t.n_rows:
            assert out.column("x").to_list() == [0, 2, 3, 5]

    def test_all_null_labels_raise_when_n_covers_the_table(self):
        t = Table({"x": [1, 2], "label": [None, None]}, name="t")
        with pytest.raises(SchemaError):
            stratified_sample(t, "label", 10)

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 1] * 40 + [1] * 20,
            [0, None, 1, 1, None, 2] * 15,
            ["b", "a", None, "c", "a"] * 12,
            [9, 10, 10, 9, 100, 9] * 10,  # visited in str order: 10, 100, 9
            [7] * 30,  # a single class
            [0] * 59 + [1],  # quota clamps up to 1
            [0, 1, 2, 3, 4] * 6 + [5],  # ... and down to the class size
            [1.5, -0.0, 0.0, None, 2.5] * 8,
            [True, False, False, None] * 10,
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("n,seed", [(1, 0), (7, 1), (11, 2), (29, 3)])
    def test_same_sample_as_the_per_row_loop(self, labels, n, seed):
        def reference(table, label_column, n, seed):
            # stratified_sample's sampling branch before np.unique grouping.
            by_class = {}
            for i, value in enumerate(table.column(label_column)):
                if value is not None:
                    by_class.setdefault(value, []).append(i)
            total = sum(len(v) for v in by_class.values())
            rng = np.random.default_rng(seed)
            chosen = []
            for cls in sorted(by_class.keys(), key=str):
                members = by_class[cls]
                quota = min(max(1, round(n * len(members) / total)), len(members))
                picks = rng.choice(len(members), size=quota, replace=False)
                chosen.extend(members[p] for p in picks)
            return table.take(np.sort(np.asarray(chosen, dtype=np.int64)))

        t = Table({"row": list(range(len(labels))), "label": labels}, name="t")
        assert n < t.n_rows
        assert stratified_sample(t, "label", n, seed=seed) == reference(
            t, "label", n, seed
        )


class TestTrainTestSplit:
    def test_partition(self):
        y = np.array([0, 1] * 50)
        train, test = train_test_split_indices(100, y, 0.2, seed=0)
        assert len(train) + len(test) == 100
        assert set(train).isdisjoint(test)

    def test_fraction(self):
        y = np.array([0, 1] * 500)
        train, test = train_test_split_indices(1000, y, 0.2, seed=0)
        assert len(test) == pytest.approx(200, abs=5)

    def test_stratified(self):
        y = np.array([0] * 900 + [1] * 100)
        __, test = train_test_split_indices(1000, y, 0.2, seed=0)
        test_pos = np.sum(y[test] == 1)
        assert test_pos == pytest.approx(20, abs=3)

    def test_every_class_in_test_when_possible(self):
        y = np.array([0] * 96 + [1] * 4)
        __, test = train_test_split_indices(100, y, 0.2, seed=0)
        assert 1 in y[test]

    def test_singleton_class_stays_in_train(self):
        y = np.array([0] * 99 + [1])
        train, test = train_test_split_indices(100, y, 0.2, seed=0)
        assert 1 in y[train]
        assert 1 not in y[test]

    def test_invalid_fraction_raises(self):
        with pytest.raises(SchemaError):
            train_test_split_indices(10, np.zeros(10), 1.5)

    def test_deterministic(self):
        y = np.array([0, 1] * 50)
        a = train_test_split_indices(100, y, 0.2, seed=9)
        b = train_test_split_indices(100, y, 0.2, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
