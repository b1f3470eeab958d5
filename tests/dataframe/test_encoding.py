"""KeyDictionary: interning, normalisation, cross-table code alignment.

The regression focus is the mixed-dtype key collision rule the issue calls
out: ``1``, ``1.0`` and ``np.int64(1)`` must land on the same code (they
join-match and share one dedup-representative digest) while ``"1"`` stays
a distinct, never-matching key.  That rule lives in
:func:`repro.dataframe.encoding.normalize_key` and everything here pins it.
"""

import numpy as np
import pytest

from repro.dataframe import CODE_NULL, Column, DType, KeyDictionary, normalize_key


def _col(values, dtype, mask=None):
    if dtype is DType.STRING:
        arr = np.asarray(values, dtype=object)
    else:
        arr = np.asarray(values)
    if mask is None:
        mask = np.zeros(len(arr), dtype=bool)
    return Column(arr, dtype=dtype, mask=np.asarray(mask, dtype=bool))


class TestNormalizeKey:
    def test_int_float_collapse(self):
        assert normalize_key(1) == normalize_key(1.0) == normalize_key(np.int64(1))
        assert normalize_key(np.float64(1.0)) == 1
        assert type(normalize_key(1.0)) is int

    def test_string_never_coerced(self):
        assert normalize_key("1") == "1"
        assert normalize_key("1") != normalize_key(1)
        assert normalize_key(np.str_("1")) == "1"

    def test_bool_preserved(self):
        assert normalize_key(True) is True
        assert normalize_key(np.bool_(False)) is False
        # bools hash like ints but must digest as 'True'/'False'.
        assert repr(normalize_key(True)) == "True"

    def test_non_integral_float_kept(self):
        assert normalize_key(1.5) == 1.5
        assert isinstance(normalize_key(1.5), float)

    def test_none_passthrough(self):
        assert normalize_key(None) is None


class TestFromColumn:
    def test_codes_are_sorted_ranks(self):
        d = KeyDictionary.from_column(_col([30, 10, 20, 10], DType.INT))
        assert d is not None
        assert d.n_keys == 3
        assert d.codes.tolist() == [2, 0, 1, 0]
        assert d.codes.dtype == np.int32

    def test_null_sentinel(self):
        d = KeyDictionary.from_column(
            _col([5, 0, 7], DType.INT, mask=[False, True, False])
        )
        assert d.codes.tolist() == [0, CODE_NULL, 1]

    def test_empty_column(self):
        d = KeyDictionary.from_column(_col([], DType.INT))
        assert d is not None
        assert d.n_keys == 0
        assert len(d.codes) == 0

    def test_unmasked_nan_encodes_to_code_null(self):
        """NaN equals no probe value, so it is a null for join purposes."""
        col = _col([1.0, np.nan, 2.0], DType.FLOAT)
        d = KeyDictionary.from_column(col)
        assert d.codes.tolist() == [0, CODE_NULL, 1]
        assert (d.n_keys, d.key(0), d.key(1)) == (2, 1, 2)

    def test_masked_nan_is_fine(self):
        col = _col([1.0, np.nan, 2.0], DType.FLOAT, mask=[False, True, False])
        d = KeyDictionary.from_column(col)
        assert d is not None
        assert d.codes.tolist() == [0, CODE_NULL, 1]

    def test_integral_float_keys_normalise_to_int(self):
        d = KeyDictionary.from_column(_col([2.0, 1.0], DType.FLOAT))
        assert (d.key(0), d.key(1)) == (1, 2)
        assert type(d.key(0)) is int and type(d.key(1)) is int

    def test_bool_keys_digest_as_bool(self):
        d = KeyDictionary.from_column(_col([True, False, True], DType.BOOL))
        assert (d.key(0), d.key(1)) == (False, True)
        assert isinstance(d.key(0), bool) and isinstance(d.key(1), bool)

    def test_string_keys(self):
        d = KeyDictionary.from_column(_col(["b", "a", "b"], DType.STRING))
        assert (d.n_keys, d.key(0), d.key(1)) == (2, "a", "b")
        assert d.codes.tolist() == [1, 0, 1]


class TestEncodeColumn:
    def test_same_space_roundtrip(self):
        d = KeyDictionary.from_column(_col([10, 20, 30], DType.INT))
        codes = d.encode_column(_col([20, 99, 10], DType.INT))
        assert codes.tolist() == [1, CODE_NULL, 0]

    def test_probe_nulls_are_sentinel(self):
        d = KeyDictionary.from_column(_col([10, 20], DType.INT))
        codes = d.encode_column(_col([10, 0], DType.INT, mask=[False, True]))
        assert codes.tolist() == [0, CODE_NULL]

    def test_int_probe_against_float_dictionary(self):
        """The 1 vs 1.0 alignment across tables — the headline regression."""
        d = KeyDictionary.from_column(_col([1.0, 2.0, 3.5], DType.FLOAT))
        codes = d.encode_column(_col([1, 2, 3], DType.INT))
        assert codes.tolist() == [0, 1, CODE_NULL]

    def test_float_probe_against_int_dictionary(self):
        d = KeyDictionary.from_column(_col([1, 2, 3], DType.INT))
        codes = d.encode_column(_col([1.0, 2.5, 3.0], DType.FLOAT))
        assert codes.tolist() == [0, CODE_NULL, 2]

    def test_string_probe_never_matches_numeric(self):
        d = KeyDictionary.from_column(_col([1, 2], DType.INT))
        codes = d.encode_column(_col(["1", "2"], DType.STRING))
        assert codes.tolist() == [CODE_NULL, CODE_NULL]

    def test_numeric_probe_never_matches_string(self):
        d = KeyDictionary.from_column(_col(["1", "2"], DType.STRING))
        codes = d.encode_column(_col([1, 2], DType.INT))
        assert codes.tolist() == [CODE_NULL, CODE_NULL]

    def test_bool_probe_matches_int_dictionary(self):
        d = KeyDictionary.from_column(_col([0, 1, 2], DType.INT))
        codes = d.encode_column(_col([True, False], DType.BOOL))
        assert codes.tolist() == [1, 0]

    def test_nan_probe_values_never_match(self):
        d = KeyDictionary.from_column(_col([1, 2], DType.INT))
        codes = d.encode_column(_col([np.nan, 1.0], DType.FLOAT))
        assert codes.tolist() == [CODE_NULL, 0]

    def test_huge_int_beyond_exact_float_range(self):
        """|v| > 2**53 cannot bridge through float64; the scalar fallback
        must still match exactly and reject off-by-one neighbours."""
        big = 2**60 + 1
        d = KeyDictionary.from_column(_col([1.0, 2.0], DType.FLOAT))
        codes = d.encode_column(_col([big, 1], DType.INT))
        assert codes.tolist() == [CODE_NULL, 0]
        d_int = KeyDictionary.from_column(_col([big, 7], DType.INT))
        probe = d_int.encode_column(_col([big, big + 2, 7], DType.INT))
        # Codes are ranks in the sorted universe: 7 < big.
        assert probe.tolist() == [1, CODE_NULL, 0]

    def test_empty_dictionary_rejects_everything(self):
        d = KeyDictionary.from_column(_col([], DType.INT))
        codes = d.encode_column(_col([1, 2], DType.INT))
        assert codes.tolist() == [CODE_NULL, CODE_NULL]

    def test_scalar_lookup_matches_vectorised(self):
        """An int probe beyond 2**53 takes the per-value lookup onto a float
        dictionary; it finds the code the same value gets as a float probe."""
        d = KeyDictionary.from_column(_col([1.0, 2.0**60, 3.0], DType.FLOAT))
        scalar = d.encode_column(_col([2**60, 2**60 + 1, 3], DType.INT))
        vectorised = d.encode_column(_col([2.0**60, 3.0], DType.FLOAT))
        assert scalar.tolist() == [vectorised[0], CODE_NULL, vectorised[1]]
        assert vectorised.tolist() == [2, 1]


class TestMixedDtypeRegression:
    """1, 1.0 and "1" across build/probe tables — the satellite regression."""

    @pytest.mark.parametrize(
        "build_dtype,build_values",
        [(DType.INT, [1, 2]), (DType.FLOAT, [1.0, 2.0])],
    )
    def test_numeric_build_sides_agree(self, build_dtype, build_values):
        d = KeyDictionary.from_column(_col(build_values, build_dtype))
        int_probe = d.encode_column(_col([1], DType.INT))
        float_probe = d.encode_column(_col([1.0], DType.FLOAT))
        str_probe = d.encode_column(_col(["1"], DType.STRING))
        assert int_probe.tolist() == float_probe.tolist() == [0]
        assert str_probe.tolist() == [CODE_NULL]

    def test_string_build_side_only_matches_strings(self):
        d = KeyDictionary.from_column(_col(["1", "2"], DType.STRING))
        assert d.encode_column(_col(["1"], DType.STRING)).tolist() == [0]
        assert d.encode_column(_col([1], DType.INT)).tolist() == [CODE_NULL]
        assert d.encode_column(_col([1.0], DType.FLOAT)).tolist() == [CODE_NULL]
