"""Unit tests for the discovery/augmentation result types."""

from repro.core import DiscoveryResult, HopVerdict, RankedPath
from repro.graph import JoinPath, OrientedEdge

EDGE = OrientedEdge("base", "t", "k", "k", 1.0)


def make_ranked(score: float, features=("t.f",)) -> RankedPath:
    return RankedPath(
        path=JoinPath("base"),
        score=score,
        selected_features=tuple(features),
        relevance_scores=(score,),
        redundancy_scores=(score,),
        completeness=0.9,
    )


class TestRankedPath:
    def test_describe_lists_features(self):
        text = make_ranked(0.5).describe()
        assert "t.f" in text
        assert "+0.5000" in text

    def test_describe_empty_features(self):
        assert "(no new features)" in make_ranked(0.1, features=()).describe()


class TestDiscoveryResult:
    def make(self, scores):
        return DiscoveryResult(
            base_table="base",
            label_column="label",
            verdicts=tuple(
                HopVerdict("ranked", JoinPath("base"), EDGE, ranked=make_ranked(s))
                for s in scores
            ),
            feature_selection_seconds=0.5,
        )

    def test_top_k(self):
        result = self.make([0.9, 0.5, 0.1])
        assert [r.score for r in result.top(2)] == [0.9, 0.5]

    def test_best_path(self):
        assert self.make([0.9, 0.5]).top(1)[0].score == 0.9

    def test_best_path_empty(self):
        assert self.make([]).top(1) == ()
