"""Unit tests for name-based similarity measures."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.discovery import token_similarity, tokenize_identifier
from repro.discovery.coma import _name_bound, _name_score, _NameScoreMemo
from repro.discovery.name_similarity import NameFeatures, _ngrams
from tests.oracle.names import (
    jaro_winkler_similarity,
    levenshtein_similarity,
    ngram_similarity,
)

identifiers = st.text(alphabet="abcdefgh_XYZ0123", min_size=0, max_size=12)
#: Arbitrary unicode, plus long strings over a tiny alphabet so that pairs
#: beyond one 64-bit word still share long runs.
any_text = st.one_of(
    st.text(max_size=24), st.text(alphabet="ab_", min_size=40, max_size=200)
)
#: Every shape the bit-parallel measures special-case: empty, one
#: character, runs of one repeated character, tiny alphabets (many
#: candidates per window) and arbitrary unicode.
edge_text = st.one_of(
    st.text(max_size=1),
    st.text(alphabet="aab", max_size=20),
    st.integers(0, 70).map(lambda n: "k" * n),
    any_text,
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


def _scalar_jaro_winkler(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """The position-by-position scan ``jaro_winkler_similarity`` was before
    the bit-parallel window; kept here as the oracle."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, flagged in enumerate(a_flags):
        if not flagged:
            continue
        while not b_flags[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    jaro = (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def _self_masking_levenshtein(a: str, b: str) -> float:
    """The bit-vector ``levenshtein_similarity`` as it was when it built
    its own occurrence masks per call; kept here as the oracle for the
    shared per-name masks."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    pattern, text = (a, b) if len(a) >= len(b) else (b, a)
    occurrences: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        occurrences[ch] = occurrences.get(ch, 0) | (1 << i)
    m = len(pattern)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    plus, minus, distance = mask, 0, m
    for ch in text:
        eq = occurrences.get(ch, 0)
        diag = eq | minus
        horiz = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(horiz | plus)
        h_minus = plus & horiz
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        h_plus = ((h_plus << 1) | 1) & mask
        plus = ((h_minus << 1) | ~(diag | h_plus)) & mask
        minus = h_plus & diag
    return 1.0 - distance / m


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
        + _scalar_jaro_winkler(a.lower(), b.lower())
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

    @given(a=edge_text, b=edge_text)
    @example(a="martha", b="marhta")
    @example(a="ab", b="ba")
    @example(a="a", b="aaaa")
    @example(a="aaaa", b="a")
    @example(a="İd", b="i̇d")
    def test_bit_parallel_jaro_winkler_equals_scalar_scan(self, a, b):
        assert jaro_winkler_similarity(a, b) == _scalar_jaro_winkler(a, b)
        assert jaro_winkler_similarity(b, a) == _scalar_jaro_winkler(b, a)

    @given(a=edge_text, b=edge_text)
    @example(a="", b="k")
    @example(a="k" * 64, b="k" * 65)
    def test_shared_mask_levenshtein_equals_self_masking(self, a, b):
        assert levenshtein_similarity(a, b) == _self_masking_levenshtein(a, b)
        assert levenshtein_similarity(b, a) == _self_masking_levenshtein(b, a)

    @given(a=st.one_of(identifiers, edge_text), b=st.one_of(identifiers, edge_text))
    @example(a="credit_id", b="CreditID")
    @example(a="k0001", b="k0001")
    @example(a="", b="x")
    def test_memo_scores_both_orders_like_name_score(self, a, b):
        memo = _NameScoreMemo()
        # (b, a) reuses the symmetric measures (a, b) stored.
        for x, y in ((a, b), (b, a), (a, b)):
            expected = _name_score(NameFeatures(x), NameFeatures(y))
            assert memo.score(x, y) == expected


class TestNameBound:
    """The bound the matcher skips pairs by is never below a pair's score."""

    @given(a=st.one_of(identifiers, edge_text), b=st.one_of(identifiers, edge_text))
    @example(a="", b="")
    @example(a="", b="x")
    @example(a="Name", b="name")
    @example(a="CreditID", b="credit_id")
    @example(a="İd", b="id")
    @example(a="İ", b="i̇")
    @example(a="ẞ", b="ß")
    @example(a="STRAẞE", b="straße")
    @example(a="k" * 64, b="k" * 65)
    def test_bound_is_at_least_the_score(self, a, b):
        # Both against the per-pair reference composition, which shares no
        # code with the features the bound reads, and the feature path.
        for x, y in ((a, b), (b, a)):
            bound = _name_bound(NameFeatures(x), NameFeatures(y))
            assert bound >= _reference_name_score(x, y)
            assert bound >= _name_score(NameFeatures(x), NameFeatures(y))
            assert 0.0 <= bound <= 1.0
