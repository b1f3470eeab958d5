"""Scalar name similarities: one string pair in, one score in [0, 1] out.

COMA scores a column pair from :class:`~repro.discovery.name_similarity
.NameFeatures` derived once per name (lower-cased, position-masked,
trigrams, tokens) and memoises the result per pair.  These are the same
kernels called on raw strings, one pair at a time — the form the unit
tests state the measures in, and the form the cell-by-cell references in
``tests/discovery/test_name_similarity.py`` check the bit-parallel
kernels against.
"""

from repro.discovery.name_similarity import (
    _jaro_winkler,
    _levenshtein,
    _ngrams,
    _positions,
    set_jaccard,
)


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - edit_distance / max_length (case-sensitive)."""
    return _levenshtein(a, _positions(a), b, _positions(b))


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity, rewarding a shared prefix of up to four."""
    return _jaro_winkler(a, b, _positions(b), prefix_weight)


def ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """Jaccard similarity of ``#``-padded, lower-cased character n-grams."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    return set_jaccard(_ngrams(a.lower(), n), _ngrams(b.lower(), n))
