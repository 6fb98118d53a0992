"""The strided checksum fold: one group-major reduction, bitwise the group-by-group sum.

:func:`repro.gemm.checksum._strided_folds` folds ``S`` and ``|S|`` by
widening chunks of rows into a group-major float64 buffer and reducing over
its outermost axis.  Every class must still add its groups 0, 1, 2, ... in
order from 0.0, so the fold is compared bit for bit with the loop it
replaced (``fold_oracle.strided_fold``).

NaN payloads are the one exception.  When two NaNs meet in an add, NumPy's
float64 loops return either operand's payload depending on the loop variant
(a strided in-place add of the oracle's ragged last group, or a
single-element add, takes the other one), so a payload is not a property of
the summation order.  Wherever at most one NaN reaches a class's sum -- one
NaN input, or an ``inf - inf`` -- the payload is pinned too; elsewhere both
folds must agree that the class is NaN.  Nothing downstream reads a payload.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
from fold_oracle import strided_fold
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gemm import checksum
from repro.gemm.checksum import _strided_folds, strided_sums


def _float32_bits(value: float) -> int:
    return int(np.float32(value).view(np.uint32))


#: Float32 bit patterns: signed zeros and infinities, NaNs (quiet and
#: signalling, either sign, any payload) and magnitudes from 1e-30 to 1e30.
element_bits = st.one_of(
    st.sampled_from([0x00000000, 0x80000000, 0x7F800000, 0xFF800000]),
    st.builds(
        lambda sign, payload: sign | 0x7F800000 | payload,
        st.sampled_from([0, 0x80000000]),
        st.integers(1, 2**23 - 1),
    ),
    st.builds(
        lambda mantissa, exponent, negative: _float32_bits(
            (-mantissa if negative else mantissa) * 10.0**exponent
        ),
        st.floats(1.0, 9.999),
        st.integers(-30, 30),
        st.booleans(),
    ),
)


def _nan_sources(s: np.ndarray, stride: int) -> np.ndarray:
    """How many NaNs can reach each class's sum: NaN inputs, plus one for ``inf - inf``."""
    with np.errstate(invalid="ignore"):
        nans = strided_fold(np.isnan(s), stride)
        both_infinities = (strided_fold(s == np.inf, stride) > 0) & (
            strided_fold(s == -np.inf, stride) > 0
        )
    return nans + both_infinities


def _assert_fold_equal(got: np.ndarray, want: np.ndarray, nan_sources: np.ndarray) -> None:
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    pinned = nan_sources <= 1
    assert np.array_equal(got.view(np.uint64)[pinned], want.view(np.uint64)[pinned])


def _assert_folds_match_oracle(s: np.ndarray, stride: int) -> None:
    with np.errstate(invalid="ignore"):
        fold, fold_abs = _strided_folds(s, stride)
        want, want_abs = strided_fold(s, stride), strided_fold(np.abs(s), stride)
    _assert_fold_equal(fold, want, _nan_sources(s, stride))
    _assert_fold_equal(fold_abs, want_abs, _nan_sources(np.abs(s), stride))
    with np.errstate(invalid="ignore"):
        public = strided_sums(s, stride)[0]
    assert np.array_equal(public.view(np.uint64), fold.view(np.uint64))


class TestFoldMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(
            st.lists(st.integers(0, 4), min_size=1, max_size=3), st.integers(0, 41)
        ).map(lambda t: (*t[0], t[1])),
        stride=st.integers(1, 9),
        chunk=st.sampled_from([16, 40, 96, checksum._FOLD_CHUNK]),
        data=st.data(),
    )
    def test_any_layout_of_specials_and_magnitudes(self, shape, stride, chunk, data):
        # Small chunks split rows across chunks and rows into group blocks.
        s = data.draw(hnp.arrays(np.uint32, shape, elements=element_bits)).view(np.float32)
        with mock.patch.object(checksum, "_FOLD_CHUNK", chunk):
            _assert_folds_match_oracle(s, stride)

    def test_a_stacked_lm_head_output_crosses_chunk_boundaries(self):
        # 1024 rows of 997 columns: 65 rows per 64K-element chunk, and a
        # partial last chunk.
        rng = np.random.default_rng(0)
        s = (rng.standard_normal((16, 64, 997)) * 10.0 ** rng.integers(-30, 30, (16, 64, 997)))
        _assert_folds_match_oracle(s.astype(np.float32), 8)

    def test_a_row_wider_than_a_chunk_folds_block_by_block(self):
        rng = np.random.default_rng(1)
        s = (rng.standard_normal((2, 70_001)) * 10.0 ** rng.integers(-30, 30, (2, 70_001)))
        _assert_folds_match_oracle(s.astype(np.float32), 8)

    def test_negative_zeros_sum_to_positive_zero(self):
        # 0.0 + -0.0 is +0.0: the oracle's accumulator starts at +0.0.
        s = np.full((3, 19), -0.0, dtype=np.float32)
        for fold in _strided_folds(s, 8):
            assert fold.view(np.uint64).tolist() == [[0] * 8] * 3

    def test_views_fold_like_their_copies(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((6, 40, 50)).astype(np.float32)
        for view in (base[:, ::2, 3:], base[::-1], np.swapaxes(base, 0, 1)):
            _assert_folds_match_oracle(view, 8)


class TestSummationOrder:
    @staticmethod
    def _adversarial(rows: int, stride: int) -> np.ndarray:
        """Class 0 of row 0 holds 1.0 then 199 values of 1e-16.

        Added in order, each 1e-16 is below half an ulp of 1.0 and vanishes:
        the sum is exactly 1.0.  Any order that adds small values together
        first (NumPy's pairwise sum, a reversed loop) ends above 1.0.
        """
        s = np.random.default_rng(3).standard_normal((rows, 200 * stride)).astype(np.float32)
        s[0, ::stride] = np.float32(1e-16)
        s[0, 0] = 1.0
        return s

    def test_a_reordered_sum_of_the_adversarial_class_differs(self):
        s = self._adversarial(1, 8)
        column = s[0, ::8].astype(np.float64)
        assert strided_fold(s, 8)[0, 0] == 1.0
        assert np.sum(column) != 1.0  # pairwise
        assert np.sum(column[::-1]) != 1.0  # reversed
        # The order the fold keeps:
        total = 0.0
        for value in column:
            total += value
        assert total == 1.0

    def test_the_fold_adds_groups_in_order(self):
        for rows, stride in ((1, 8), (5, 8), (1, 1), (3, 1), (1, 2)):
            s = self._adversarial(rows, stride)
            fold, fold_abs = _strided_folds(s, stride)
            assert fold[0, 0] == fold_abs[0, 0] == 1.0
            _assert_folds_match_oracle(s, stride)


def test_scratch_stays_within_one_chunk():
    # A whole-array float64 widening of this stack would take 8 MB; the
    # fold holds one chunk of at most 64K float64 elements besides its
    # two (rows x stride) results.
    s = np.random.default_rng(4).standard_normal((16, 64, 997)).astype(np.float32)
    results = 2 * 16 * 64 * 8 * 8
    tracemalloc.start()
    try:
        _strided_folds(s, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checksum._FOLD_CHUNK == 1 << 16
    assert results < peak <= results + 8 * checksum._FOLD_CHUNK + 16_384
