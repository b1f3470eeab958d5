"""Unit tests for the tabular encoder and the AutoML wrapper."""

import numpy as np
import pytest

from repro.dataframe import Table
from repro.errors import ModelError
from repro.ml import (
    MODEL_REGISTRY,
    NON_TREE_MODELS,
    TREE_MODELS,
    AutoTabularPredictor,
    TabularEncoder,
    encode_labels,
    evaluate_accuracy,
)


@pytest.fixture
def table():
    rng = np.random.default_rng(0)
    n = 300
    signal = rng.normal(0, 1, n)
    return Table(
        {
            "num": signal,
            "with_nulls": np.where(rng.random(n) < 0.1, np.nan, signal),
            "cat": [["red", "green", "blue"][i % 3] for i in range(n)],
            "label": (signal > 0).astype(int),
        },
        name="t",
    )


class TestEncodeLabels:
    def test_contiguous_codes(self):
        encoded, classes = encode_labels(np.array(["b", "a", "b"], dtype=object))
        assert classes == ["a", "b"]
        assert list(encoded) == [1, 0, 1]

    def test_numeric_labels(self):
        encoded, classes = encode_labels(np.array([5, 2, 5], dtype=object))
        assert classes == [2, 5]
        assert list(encoded) == [1, 0, 1]


    @pytest.mark.parametrize(
        "labels",
        [
            np.array([5, 2, 5, 10, 9], dtype=object),
            np.array(["b", "a", "b", "10", "9"], dtype=object),
            np.array([True, False, True], dtype=object),
            np.array([1.5, -0.0, 0.0, 1.5], dtype=object),
            np.array([np.int64(3), 1, np.int64(1)], dtype=object),
            np.array([3, 1, 3, 2]),
            np.array([0.25, 0.5, 0.25]),
            np.array(["x", "y"]),
            np.array([], dtype=object),
        ],
        ids=repr,
    )
    def test_matches_the_per_element_loop(self, labels):
        def reference(label_values):
            # encode_labels as it was before the bulk conversion.
            flat = np.asarray(label_values)
            classes = sorted({v.item() if isinstance(v, np.generic) else v for v in flat})
            mapping = {c: i for i, c in enumerate(classes)}
            encoded = np.asarray(
                [mapping[v.item() if isinstance(v, np.generic) else v] for v in flat]
            )
            return encoded.astype(np.int64), classes

        encoded, classes = encode_labels(labels)
        expected, expected_classes = reference(labels)
        assert encoded.dtype == expected.dtype and encoded.tolist() == expected.tolist()
        assert repr(classes) == repr(expected_classes)
        assert [type(c) for c in classes] == [type(c) for c in expected_classes]


class TestTabularEncoder:
    def test_output_finite(self, table):
        X = TabularEncoder().fit_transform(table, ["num", "with_nulls", "cat"])
        assert np.isfinite(X).all()

    def test_string_encoding_deterministic(self, table):
        a = TabularEncoder().fit_transform(table, ["cat"])
        b = TabularEncoder().fit_transform(table, ["cat"])
        assert np.array_equal(a, b)

    def test_transform_consistent_on_new_rows(self, table):
        encoder = TabularEncoder().fit(table, ["cat"])
        head = table.take(range(10))
        X = encoder.transform(head)
        assert X.shape == (10, 1)

    def test_unseen_category_gets_new_code(self, table):
        encoder = TabularEncoder().fit(table, ["cat"])
        novel = Table({"cat": ["violet"]}, name="n")
        X = encoder.transform(novel)
        assert X[0, 0] == 3.0  # one past the 3 known categories

    def test_null_imputed_with_train_median(self):
        train = Table({"a": [1.0, 2.0, 3.0]}, name="train")
        encoder = TabularEncoder().fit(train, ["a"])
        test = Table({"a": [None]}, name="test")
        assert encoder.transform(test)[0, 0] == 2.0

    def test_unfitted_raises(self, table):
        with pytest.raises(ModelError):
            TabularEncoder().transform(table)

    def test_zero_features_raise(self, table):
        with pytest.raises(ModelError):
            TabularEncoder().fit(table, [])


class TestAutoTabularPredictor:
    def test_registry_covers_paper_models(self):
        assert set(TREE_MODELS) <= set(MODEL_REGISTRY)
        assert set(NON_TREE_MODELS) <= set(MODEL_REGISTRY)
        assert len(MODEL_REGISTRY) == 6

    def test_unknown_model_raises(self):
        with pytest.raises(ModelError):
            AutoTabularPredictor("catboost")

    def test_evaluate_returns_result(self, table):
        result = AutoTabularPredictor("lightgbm", seed=0).evaluate(table, "label")
        assert 0.5 < result.accuracy <= 1.0
        assert result.n_train + result.n_test == table.n_rows
        assert result.n_features == 3

    def test_feature_subset_used(self, table):
        result = AutoTabularPredictor("lightgbm", seed=0).evaluate(
            table, "label", feature_names=["num"]
        )
        assert result.feature_names == ("num",)

    def test_label_excluded_from_features(self, table):
        result = AutoTabularPredictor("lightgbm", seed=0).evaluate(
            table, "label", feature_names=["num", "label"]
        )
        assert "label" not in result.feature_names

    def test_missing_label_raises(self, table):
        with pytest.raises(ModelError):
            AutoTabularPredictor().evaluate(table, "nope")

    def test_null_labels_raise(self):
        t = Table({"x": [1.0, 2.0], "label": [0, None]}, name="t")
        with pytest.raises(ModelError):
            AutoTabularPredictor().evaluate(t, "label")

    def test_no_features_raises(self):
        t = Table({"label": [0, 1]}, name="t")
        with pytest.raises(ModelError):
            AutoTabularPredictor().evaluate(t, "label")

    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_every_model_beats_chance(self, model, table):
        acc = evaluate_accuracy(table, "label", model, seed=0)
        assert acc > 0.7

    def test_deterministic_given_seed(self, table):
        a = evaluate_accuracy(table, "label", "lightgbm", seed=3)
        b = evaluate_accuracy(table, "label", "lightgbm", seed=3)
        assert a == b


@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
def test_fit_on_zero_rows_raises_model_error(model):
    with pytest.raises(ModelError, match="zero rows"):
        MODEL_REGISTRY[model](0).fit(np.empty((0, 3)), np.empty(0, dtype=np.int64))


class TestSingleClassLabel:
    """One label value is class index 0; no model may predict an index 1."""

    @pytest.fixture
    def single_class_table(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(0, 1, (2, 60))
        return Table({"a": a, "b": b, "label": ["only"] * 60}, name="t")

    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_model_predicts_the_existing_class(self, model):
        X = np.random.default_rng(1).normal(0, 1, (60, 3))
        fitted = MODEL_REGISTRY[model](0).fit(X, np.zeros(60, dtype=np.int64))
        assert (fitted.predict(X) == 0).all()

    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_predictor_evaluates_and_predicts(self, model, single_class_table):
        # evaluate predicts the held-out rows: every one the existing class.
        predictor = AutoTabularPredictor(model, seed=0)
        assert predictor.evaluate(single_class_table, "label").accuracy == 1.0
