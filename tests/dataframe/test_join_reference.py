"""Fuzz the hash left join against brute-force reference implementations.

The references live in ``tests/oracle/join.py``, beside the dict-of-boxed-
scalars dedup + index + probe the encoded kernels are held to
(``tests/engine/test_encoded_parity.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Table
from tests.oracle.join import dedup_by_key, left_join, reference_left_join


keys = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    min_size=1,
    max_size=40,
)


@given(keys, keys, st.integers(min_value=0, max_value=99))
@settings(max_examples=100)
def test_join_matches_reference_modulo_representative(left_keys, right_keys, seed):
    """Our join equals the reference once the same representative is fixed.

    The engine picks a seeded-random representative per duplicate key;
    feeding the *deduplicated* right table to the reference removes that
    freedom, after which outputs must agree exactly.
    """
    left = Table({"k": left_keys}, name="l")
    right = Table(
        {"k": right_keys, "v": list(range(len(right_keys)))}, name="r"
    )
    deduped = dedup_by_key(right, "k", seed=seed)
    expected = reference_left_join(
        left_keys,
        deduped.column("k").to_list(),
        deduped.column("v").to_list(),
    )
    joined = left_join(left, right, "k", "k", seed=seed, drop_right_key=True)
    assert joined.column("v").to_list() == expected


@given(keys, keys)
@settings(max_examples=60)
def test_match_pattern_independent_of_seed(left_keys, right_keys):
    """Which probe rows match never depends on the dedup seed."""
    left = Table({"k": left_keys}, name="l")
    right = Table({"k": right_keys, "v": list(range(len(right_keys)))}, name="r")
    masks = []
    for seed in (0, 7, 42):
        joined = left_join(left, right, "k", "k", seed=seed, drop_right_key=True)
        masks.append(tuple(v is None for v in joined.column("v").to_list()))
    assert masks[0] == masks[1] == masks[2]
