"""Schema-level (name-based) similarity measures.

COMA's linguistic matchers compare attribute *names*.  We implement the
standard string-similarity toolbox — normalised Levenshtein, Jaro-Winkler,
character n-gram Jaccard and identifier-token overlap — all returning
scores in [0, 1].  COMA calls the Levenshtein and Jaro-Winkler kernels on
:class:`NameFeatures` derived once per name; their one-pair-of-strings
forms are test references (``tests/oracle/names.py``).
"""

from __future__ import annotations

import re

__all__ = [
    "token_similarity",
    "tokenize_identifier",
    "set_jaccard",
    "NameFeatures",
]

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


def _positions(text: str) -> dict[str, int]:
    """Per character of ``text``, the bit mask of its positions (bit i = index i)."""
    positions: dict[str, int] = {}
    for i, ch in enumerate(text):
        positions[ch] = positions.get(ch, 0) | (1 << i)
    return positions


def _levenshtein(a: str, positions_a: dict, b: str, positions_b: dict) -> float:
    """1 - edit_distance / max_length, in [0, 1]; ``positions_*`` are the
    strings' :func:`_positions`.

    The distance is the exact integer edit distance, computed with the
    Myers (1999) bit-vector recurrence in the edit-distance form given
    by Hyyrö (2003): one column of the DP matrix is held as two
    bit-vectors of vertical +1 / -1 deltas, and a whole column is
    advanced with a handful of word operations per text character.
    Python ints are the words, so there is no 64-character limit and no
    blocking.
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    # Fewer loop turns with the shorter string as the text; the distance
    # is symmetric.
    if len(a) >= len(b):
        m, occurrences, text = len(a), positions_a, b
    else:
        m, occurrences, text = len(b), positions_b, a
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


def _jaro_winkler(
    a: str, b: str, positions_b: dict, prefix_weight: float = 0.1
) -> float:
    """Jaro-Winkler similarity, rewarding shared prefixes (identifier-friendly).

    Bit-parallel over ``b``'s positions: the greedy first free match of
    ``a[i]`` in its window is the lowest set bit of
    ``positions_b[a[i]] & free & window``, and transpositions pair a's
    matched characters with b's taken bits in order — the same matches,
    counts and float arithmetic as the position-by-position scan.
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    len_a, len_b = len(a), len(b)
    window = max(max(len_a, len_b) // 2 - 1, 0)
    free = (1 << len_b) - 1
    matched = []  # a's matched characters, in order
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        candidates = (positions_b.get(ca, 0) & free) >> lo << lo
        candidates &= (1 << (i + window + 1)) - 1
        if candidates:
            free ^= candidates & -candidates
            matched.append(ca)
    matches = len(matched)
    if matches == 0:
        return 0.0
    transpositions = 0
    taken = ((1 << len_b) - 1) ^ free
    for ca in matched:
        lowest = taken & -taken
        transpositions += b[lowest.bit_length() - 1] != ca
        taken ^= lowest
    transpositions //= 2
    jaro = (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def _ngrams(text: str, n: int) -> set[str]:
    padded = f"#{text}#"
    if len(padded) < n:
        return {padded}
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


def set_jaccard(a: frozenset | set, b: frozenset | set) -> float:
    """|A∩B| / |A∪B| from one intersection; 0.0 when both sets are empty."""
    shared = len(a & b)
    union = len(a) + len(b) - shared
    return shared / union if union else 0.0


def tokenize_identifier(name: str) -> list[str]:
    """Split an identifier into lowercase word tokens.

    Handles snake_case, kebab-case, spaces and camelCase:
    ``"applicantID"`` -> ``["applicant", "id"]``.
    """
    decamelled = _CAMEL_BOUNDARY.sub(" ", name)
    parts = _NON_ALNUM.split(decamelled)
    return [p.lower() for p in parts if p]


def token_similarity(a: str, b: str) -> float:
    """Jaccard similarity of identifier token sets.

    Catches matches like ``credit_id`` vs ``CreditId`` that character
    metrics under-score, and is the main reason composite matchers beat any
    single string measure.
    """
    tokens_a = set(tokenize_identifier(a))
    tokens_b = set(tokenize_identifier(b))
    if not tokens_a and not tokens_b:
        return 1.0 if a == b else 0.0
    return set_jaccard(tokens_a, tokens_b)


class NameFeatures:
    """What the name measures need of one name, derived once.

    A column-pair scorer that sees the same name in thousands of pairs
    lower-cases, n-grams, tokenises and position-masks it here a single
    time and feeds the parts to the Levenshtein and Jaro-Winkler cores
    (which both read ``positions``) and to :func:`set_jaccard`.
    """

    __slots__ = ("name", "lowered", "positions", "trigrams", "tokens")

    def __init__(self, name: str):
        self.name = name
        self.lowered = name.lower()
        self.positions = _positions(self.lowered)
        self.trigrams = frozenset(_ngrams(self.lowered, 3))
        self.tokens = frozenset(tokenize_identifier(name))
