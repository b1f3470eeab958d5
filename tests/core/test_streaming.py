"""Unit tests for the streaming feature-selection pipeline."""

import numpy as np
import pytest

from repro.core import AutoFeatConfig, StreamingFeatureSelector
from repro.errors import SelectionError


@pytest.fixture
def label():
    rng = np.random.default_rng(0)
    return rng.integers(0, 2, 1200).astype(float)


@pytest.fixture
def features(label):
    rng = np.random.default_rng(1)
    return {
        "strong": label + rng.normal(0, 0.3, len(label)),
        "weak": label + rng.normal(0, 3.0, len(label)),
        "noise": rng.normal(0, 1, len(label)),
    }


def selector(label, **overrides):
    config = AutoFeatConfig(**overrides) if overrides else AutoFeatConfig()
    return StreamingFeatureSelector(config, label)


class TestSeeding:
    def test_seed_populates_selected(self, label, features):
        s = selector(label)
        s.seed_with(["strong"], features["strong"].reshape(-1, 1))
        assert s.selected_names == ["strong"]

    def test_seed_shape_mismatch_raises(self, label):
        s = selector(label)
        with pytest.raises(SelectionError):
            s.seed_with(["a"], np.zeros((10, 1)))

    def test_label_must_be_vector(self):
        with pytest.raises(SelectionError):
            StreamingFeatureSelector(AutoFeatConfig(), np.zeros((5, 2)))


class TestRelevanceStage:
    def test_irrelevant_batch_rejected(self, label, features):
        s = selector(label)
        outcome = s.process_batch(["noise"], features["noise"].reshape(-1, 1))
        assert outcome.all_irrelevant
        assert s.n_selected == 0

    def test_relevant_batch_accepted(self, label, features):
        s = selector(label)
        outcome = s.process_batch(["strong"], features["strong"].reshape(-1, 1))
        assert outcome.accepted_names == ("strong",)
        assert s.selected_names == ["strong"]

    def test_kappa_caps_survivors(self, label):
        rng = np.random.default_rng(2)
        names = [f"f{i}" for i in range(10)]
        X = np.column_stack(
            [label + rng.normal(0, 0.5, len(label)) for __ in names]
        )
        s = selector(label, kappa=3)
        outcome = s.process_batch(names, X)
        assert len(outcome.relevant_names) <= 3

    def test_relevance_scores_sorted(self, label, features):
        s = selector(label)
        X = np.column_stack([features["weak"], features["strong"]])
        outcome = s.process_batch(["weak", "strong"], X)
        assert list(outcome.relevance_scores) == sorted(
            outcome.relevance_scores, reverse=True
        )


class TestRedundancyStage:
    def test_duplicate_of_selected_rejected(self, label, features):
        s = selector(label)
        s.seed_with(["strong"], features["strong"].reshape(-1, 1))
        duplicate = features["strong"] + np.random.default_rng(3).normal(
            0, 0.01, len(label)
        )
        outcome = s.process_batch(["dup"], duplicate.reshape(-1, 1))
        assert outcome.all_redundant
        assert s.selected_names == ["strong"]

    def test_fresh_signal_accepted_after_seed(self, label, features):
        rng = np.random.default_rng(4)
        s = selector(label)
        s.seed_with(["noise"], features["noise"].reshape(-1, 1))
        outcome = s.process_batch(
            ["strong"], features["strong"].reshape(-1, 1)
        )
        assert "strong" in outcome.accepted_names

    def test_selected_set_grows_across_batches(self, label, features):
        s = selector(label)
        s.process_batch(["strong"], features["strong"].reshape(-1, 1))
        before = s.n_selected
        rng = np.random.default_rng(5)
        other = (1 - label) + rng.normal(0, 0.3, len(label))
        s.process_batch(["other"], other.reshape(-1, 1))
        assert s.n_selected >= before


class TestAblationSwitches:
    def test_relevance_off_passes_everything_to_redundancy(self, label, features):
        s = selector(label, relevance_metric=None)
        outcome = s.process_batch(["noise"], features["noise"].reshape(-1, 1))
        # Noise is not pruned by relevance; redundancy sees it (and may
        # accept it since nothing is selected yet).
        assert outcome.relevant_names == ("noise",)

    def test_redundancy_off_accepts_all_relevant(self, label, features):
        s = selector(label, redundancy_method=None)
        s.seed_with(["strong"], features["strong"].reshape(-1, 1))
        duplicate = features["strong"] + 0.001
        outcome = s.process_batch(["dup"], duplicate.reshape(-1, 1))
        assert outcome.accepted_names == ("dup",)


class TestValidation:
    def test_empty_batch_noop(self, label):
        s = selector(label)
        outcome = s.process_batch([], np.empty((len(label), 0)))
        assert outcome.accepted_names == ()

    def test_wrong_row_count_raises(self, label):
        s = selector(label)
        with pytest.raises(SelectionError):
            s.process_batch(["a"], np.zeros((10, 1)))

    def test_name_count_mismatch_raises(self, label):
        s = selector(label)
        with pytest.raises(SelectionError):
            s.process_batch(["a", "b"], np.zeros((len(label), 1)))
