"""Unit tests for name-based similarity measures."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.discovery import (
    jaro_winkler_similarity,
    levenshtein_similarity,
    ngram_similarity,
    token_similarity,
    tokenize_identifier,
)
from repro.discovery.coma import _name_score
from repro.discovery.name_similarity import NameFeatures, _ngrams

identifiers = st.text(alphabet="abcdefgh_XYZ0123", min_size=0, max_size=12)
#: Arbitrary unicode, plus long strings over a tiny alphabet so that pairs
#: beyond one 64-bit word still share long runs.
any_text = st.one_of(
    st.text(max_size=24), st.text(alphabet="ab_", min_size=40, max_size=200)
)

ALL_MEASURES = [
    levenshtein_similarity,
    jaro_winkler_similarity,
    ngram_similarity,
    token_similarity,
]


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein_similarity("credit", "credit") == 1.0

    def test_known_distance(self):
        # kitten -> sitting: distance 3, max length 7.
        assert levenshtein_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7)

    def test_empty_vs_nonempty(self):
        assert levenshtein_similarity("", "abc") == 0.0

    def test_disjoint_strings_low(self):
        assert levenshtein_similarity("aaaa", "zzzz") == 0.0


class TestJaroWinkler:
    def test_identical(self):
        assert jaro_winkler_similarity("abc", "abc") == 1.0

    def test_prefix_bonus(self):
        with_prefix = jaro_winkler_similarity("credit_id", "credit_no")
        swapped = jaro_winkler_similarity("id_credit", "no_credit")
        assert with_prefix > swapped

    def test_known_value(self):
        # Classic example: MARTHA vs MARHTA = 0.961.
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(
            0.961, abs=0.001
        )

    def test_no_match(self):
        assert jaro_winkler_similarity("ab", "xy") == 0.0


class TestNgram:
    def test_identical(self):
        assert ngram_similarity("abc", "abc") == 1.0

    def test_case_insensitive(self):
        assert ngram_similarity("ABC", "abc") == 1.0

    def test_shared_substring_scores(self):
        assert ngram_similarity("credit_score", "credit_id") > 0.2

    def test_empty(self):
        assert ngram_similarity("", "abc") == 0.0


class TestTokenize:
    def test_snake_case(self):
        assert tokenize_identifier("credit_id") == ["credit", "id"]

    def test_camel_case(self):
        assert tokenize_identifier("applicantID") == ["applicant", "id"]

    def test_mixed(self):
        assert tokenize_identifier("loanHistory_key-2") == [
            "loan",
            "history",
            "key",
            "2",
        ]

    def test_empty(self):
        assert tokenize_identifier("") == []


class TestTokenSimilarity:
    def test_reordered_tokens_match(self):
        assert token_similarity("id_credit", "credit_id") == 1.0

    def test_convention_insensitive(self):
        assert token_similarity("credit_id", "CreditId") == 1.0

    def test_partial_overlap(self):
        assert token_similarity("credit_key", "credit_ref") == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert token_similarity("alpha", "beta") == 0.0


class TestProperties:
    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=identifiers, b=identifiers)
    def test_bounded_and_symmetric_enough(self, measure, a, b):
        score = measure(a, b)
        assert 0.0 <= score <= 1.0

    @pytest.mark.parametrize(
        "measure", [levenshtein_similarity, ngram_similarity, token_similarity]
    )
    @given(a=identifiers, b=identifiers)
    def test_symmetry(self, measure, a, b):
        assert measure(a, b) == pytest.approx(measure(b, a))

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=identifiers)
    def test_identity(self, measure, a):
        assert measure(a, a) == 1.0


def _reference_levenshtein_similarity(a: str, b: str) -> float:
    """The cell-by-cell DP ``levenshtein_similarity`` was before the
    bit-vector recurrence; kept here as the oracle."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    distance = previous[-1]
    return 1.0 - distance / max(len(a), len(b))


def _reference_name_score(a: str, b: str) -> float:
    """COMA's per-pair name aggregate as it was computed from raw names,
    with the set measures spelled out over explicit unions."""
    if a == b:
        ngram = 1.0
    elif not a or not b:
        ngram = 0.0
    else:
        grams_a, grams_b = _ngrams(a.lower(), 3), _ngrams(b.lower(), 3)
        ngram = len(grams_a & grams_b) / len(grams_a | grams_b)
    tokens_a, tokens_b = set(tokenize_identifier(a)), set(tokenize_identifier(b))
    union = tokens_a | tokens_b
    if union:
        token = len(tokens_a & tokens_b) / len(union)
    else:
        token = 1.0 if a == b else 0.0
    average = (
        _reference_levenshtein_similarity(a.lower(), b.lower())
        + jaro_winkler_similarity(a.lower(), b.lower())
        + ngram
    ) / 3.0
    return max(average, token)


class TestExactness:
    """The fast paths return the very floats the replaced code returned."""

    @given(a=any_text, b=any_text)
    @example(a="", b="")
    @example(a="", b="x")
    @example(a="x", b="y")
    @example(a="x", b="x")
    @example(a="ab" * 40, b="ab" * 40)
    @example(a="ab" * 40, b="ba" * 45)
    @example(a="k" * 64, b="k" * 65)
    @example(a="x" + "k" * 127, b="k" * 128 + "y")
    def test_bit_vector_levenshtein_equals_reference_dp(self, a, b):
        assert levenshtein_similarity(a, b) == _reference_levenshtein_similarity(a, b)

    @given(a=st.one_of(identifiers, any_text), b=st.one_of(identifiers, any_text))
    @example(a="", b="__")
    @example(a="__", b="__")
    @example(a="_", b="__")
    @example(a="CreditID", b="credit_id")
    @example(a="Name", b="name")
    @example(a="İd", b="i̇d")
    def test_feature_path_name_score_equals_per_pair_composition(self, a, b):
        assert _name_score(NameFeatures(a), NameFeatures(b)) == _reference_name_score(
            a, b
        )

    @given(a=identifiers, b=identifiers)
    def test_set_measures_equal_explicit_union_quotients(self, a, b):
        grams_a, grams_b = _ngrams(a.lower(), 3), _ngrams(b.lower(), 3)
        if a != b and a and b:
            assert ngram_similarity(a, b) == len(grams_a & grams_b) / len(
                grams_a | grams_b
            )
        tokens_a, tokens_b = set(tokenize_identifier(a)), set(tokenize_identifier(b))
        if tokens_a | tokens_b:
            assert token_similarity(a, b) == len(tokens_a & tokens_b) / len(
                tokens_a | tokens_b
            )
