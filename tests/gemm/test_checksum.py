"""Tests for traditional and strided ABFT checksums."""

import numpy as np
import pytest

from repro.fp.float16 import fp16_matmul
from repro.gemm.checksum import (
    column_weights,
    encode_column_checksums,
    encode_row_checksums,
    encode_strided_row_checksums,
    row_weights,
    strided_sums,
    verify_column_checksums,
    verify_row_checksums,
    verify_strided_checksums,
)


@pytest.fixture
def operands(rng):
    a = rng.standard_normal((32, 24)).astype(np.float32)
    b = rng.standard_normal((24, 40)).astype(np.float32)
    return a, b


class TestWeights:
    def test_column_weights(self):
        c1, c2 = column_weights(4)
        np.testing.assert_array_equal(c1, [1, 1, 1, 1])
        np.testing.assert_array_equal(c2, [1, 2, 3, 4])

    def test_row_weights(self):
        r1, r2 = row_weights(3)
        np.testing.assert_array_equal(r1, [1, 1, 1])
        np.testing.assert_array_equal(r2, [1, 2, 3])


class TestTraditionalChecksums:
    def test_column_encoding_matches_sum(self, operands):
        a, _ = operands
        c1a, c2a = encode_column_checksums(a)
        np.testing.assert_allclose(c1a, a.sum(axis=0), rtol=1e-5)
        np.testing.assert_allclose(c2a, (np.arange(1, 33)[:, None] * a).sum(axis=0), rtol=1e-5)

    def test_row_encoding_matches_sum(self, operands):
        _, b = operands
        br1, br2 = encode_row_checksums(b)
        np.testing.assert_allclose(br1, b.sum(axis=1), rtol=1e-5)
        np.testing.assert_allclose(br2, (b * np.arange(1, 41)[None, :]).sum(axis=1), rtol=1e-5)

    def test_clean_product_passes_column_verification(self, operands):
        a, b = operands
        c = (a @ b).astype(np.float32)
        c1, c2 = encode_column_checksums(a)
        verdict = verify_column_checksums(c, c1 @ b, c2 @ b, atol=1e-3, rtol=1e-3)
        assert verdict.clean
        assert verdict.corrected == 0

    def test_clean_product_passes_row_verification(self, operands):
        a, b = operands
        c = (a @ b).astype(np.float32)
        r1, r2 = encode_row_checksums(b)
        verdict = verify_row_checksums(c, a @ r1, a @ r2, atol=1e-3, rtol=1e-3)
        assert verdict.clean

    def test_single_error_located_and_corrected_by_columns(self, operands):
        a, b = operands
        c = (a @ b).astype(np.float32)
        c1, c2 = encode_column_checksums(a)
        expected = c.copy()
        c[7, 11] += 3.5
        verdict = verify_column_checksums(c, c1 @ b, c2 @ b, atol=1e-3, rtol=1e-3)
        assert verdict.detected == 1
        assert verdict.corrected == 1
        assert verdict.corrections[0].row == 7
        assert verdict.corrections[0].col == 11
        np.testing.assert_allclose(c, expected, atol=1e-3)

    def test_single_error_located_and_corrected_by_rows(self, operands):
        a, b = operands
        c = (a @ b).astype(np.float32)
        r1, r2 = encode_row_checksums(b)
        expected = c.copy()
        c[3, 21] -= 2.25
        verdict = verify_row_checksums(c, a @ r1, a @ r2, atol=1e-3, rtol=1e-3)
        assert verdict.corrected == 1
        np.testing.assert_allclose(c, expected, atol=1e-3)

    def test_two_errors_in_one_column_not_correctable(self, operands):
        a, b = operands
        c = (a @ b).astype(np.float32)
        c1, c2 = encode_column_checksums(a)
        c[2, 5] += 1.0
        c[9, 5] += 1.0
        verdict = verify_column_checksums(c, c1 @ b, c2 @ b, atol=1e-3, rtol=1e-3)
        assert verdict.detected >= 1
        # The residual ratio no longer points at an integer row: either the
        # correction is refused or it lands on the wrong element; in both
        # cases the column remains inconsistent with the checksum.
        resum = c.sum(axis=0)
        assert abs(resum[5] - (c1 @ b)[5]) > 1e-3

    def test_mixed_precision_round_off_below_threshold(self, operands):
        a, b = operands
        c = fp16_matmul(a, b)
        c1, c2 = encode_column_checksums(a)
        verdict = verify_column_checksums(
            c, fp16_matmul(c1[None, :], b)[0], fp16_matmul(c2[None, :], b)[0],
            atol=1e-3, rtol=0.02,
        )
        assert verdict.clean


class TestNonFiniteLocateRatio:
    """A weighted checksum that overflowed locates nothing: uncorrectable, no crash.

    FP16 checksum operands with weights ``1..M`` overflow past 65504 (from
    ``M`` = 2048 up, say), so the weighted residual -- and with it the ratio
    that names the faulty row -- is inf or NaN.
    """

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_column_verification(self, operands, bad):
        a, b = operands
        c = (a @ b).astype(np.float32)
        c1, c2 = encode_column_checksums(a)
        check2 = (c2 @ b).copy()
        check2[11] = bad
        c[7, 11] += 3.5
        corrupted = c.copy()
        verdict = verify_column_checksums(c, c1 @ b, check2, atol=1e-3, rtol=1e-3)
        assert verdict.detected == 1
        assert verdict.uncorrectable == 1
        assert verdict.corrected == 0
        np.testing.assert_array_equal(c, corrupted)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_row_verification(self, operands, bad):
        a, b = operands
        c = (a @ b).astype(np.float32)
        r1, r2 = encode_row_checksums(b)
        check2 = (a @ r2).copy()
        check2[3] = bad
        c[3, 21] -= 2.25
        corrupted = c.copy()
        verdict = verify_row_checksums(c, a @ r1, check2, atol=1e-3, rtol=1e-3)
        assert verdict.detected == 1
        assert verdict.uncorrectable == 1
        assert verdict.corrected == 0
        np.testing.assert_array_equal(c, corrupted)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_strided_verification(self, rng, bad):
        q = rng.standard_normal((16, 64)).astype(np.float32)
        k = rng.standard_normal((32, 64)).astype(np.float32)
        s = fp16_matmul(q, k.T)
        kc1, kc2 = encode_strided_row_checksums(k.T, stride=8)
        check2 = fp16_matmul(q, kc2)
        check2[5, 19 % 8] = bad
        s[5, 19] += 40.0
        corrupted = s.copy()
        verdict = verify_strided_checksums(
            s, fp16_matmul(q, kc1), check2, stride=8, atol=1e-3, rtol=0.02
        )
        assert verdict.detected == 1
        assert verdict.uncorrectable == 1
        assert verdict.corrected == 0
        np.testing.assert_array_equal(s, corrupted)


class TestStridedChecksums:
    def test_encoding_shape(self, rng):
        kt = rng.standard_normal((64, 32)).astype(np.float32)
        c1, c2 = encode_strided_row_checksums(kt, stride=8)
        assert c1.shape == (64, 8)
        assert c2.shape == (64, 8)

    def test_encoding_matches_strided_fold(self, rng):
        kt = rng.standard_normal((16, 32)).astype(np.float32)
        c1, c2 = encode_strided_row_checksums(kt, stride=8)
        manual1 = kt[:, 0:8] + kt[:, 8:16] + kt[:, 16:24] + kt[:, 24:32]
        manual2 = 1 * kt[:, 0:8] + 2 * kt[:, 8:16] + 3 * kt[:, 16:24] + 4 * kt[:, 24:32]
        np.testing.assert_allclose(c1, manual1, rtol=1e-6)
        np.testing.assert_allclose(c2, manual2, rtol=1e-6)

    def test_ragged_tail_padded_with_zero(self, rng):
        kt = rng.standard_normal((4, 11)).astype(np.float32)
        c1, _ = encode_strided_row_checksums(kt, stride=8)
        # Columns 8..10 fold into classes 0..2; classes 3..7 only see group 0.
        np.testing.assert_allclose(c1[:, 3:], kt[:, 3:8], rtol=1e-6)
        np.testing.assert_allclose(c1[:, 0], kt[:, 0] + kt[:, 8], rtol=1e-6)

    def test_strided_sums_consistent_with_encoding(self, rng):
        s = rng.standard_normal((8, 24)).astype(np.float32)
        sum1, sum2 = strided_sums(s, stride=8)
        c1, c2 = encode_strided_row_checksums(s, stride=8)
        np.testing.assert_allclose(sum1, c1, rtol=1e-5)
        np.testing.assert_allclose(sum2, c2, rtol=1e-5)

    def test_checksum_gemm_commutes_with_fold(self, rng):
        # Equation (14): Q (K^T checksum) == strided fold of Q K^T.
        q = rng.standard_normal((16, 64)).astype(np.float32)
        k = rng.standard_normal((32, 64)).astype(np.float32)
        s = (q @ k.T).astype(np.float32)
        kc1, _ = encode_strided_row_checksums(k.T, stride=8)
        s_check = q @ kc1
        fold, _ = strided_sums(s, stride=8)
        np.testing.assert_allclose(s_check, fold, rtol=1e-4, atol=1e-4)

    def test_clean_block_passes(self, rng):
        q = rng.standard_normal((16, 64)).astype(np.float32)
        k = rng.standard_normal((32, 64)).astype(np.float32)
        s = fp16_matmul(q, k.T)
        kc1, kc2 = encode_strided_row_checksums(k.T, stride=8)
        verdict = verify_strided_checksums(
            s, fp16_matmul(q, kc1), fp16_matmul(q, kc2), stride=8, atol=1e-3, rtol=0.02
        )
        assert verdict.clean

    def test_single_error_corrected(self, rng):
        q = rng.standard_normal((16, 64)).astype(np.float32)
        k = rng.standard_normal((32, 64)).astype(np.float32)
        s = fp16_matmul(q, k.T)
        expected = s.copy()
        kc1, kc2 = encode_strided_row_checksums(k.T, stride=8)
        s[5, 19] += 40.0
        verdict = verify_strided_checksums(
            s, fp16_matmul(q, kc1), fp16_matmul(q, kc2), stride=8, atol=1e-3, rtol=0.02
        )
        assert verdict.detected == 1
        assert verdict.corrected == 1
        assert verdict.corrections[0].row == 5
        assert verdict.corrections[0].col == 19
        np.testing.assert_allclose(s, expected, atol=0.5)

    def test_nonfinite_error_repaired_and_reported_detected(self, rng):
        # Regression: the threshold pass used to overwrite the detections the
        # non-finite repair recorded, reporting a corrected NaN as undetected.
        q = rng.standard_normal((16, 64)).astype(np.float32)
        k = rng.standard_normal((32, 64)).astype(np.float32)
        s = fp16_matmul(q, k.T)
        expected = s.copy()
        kc1, kc2 = encode_strided_row_checksums(k.T, stride=8)
        s[5, 19] = np.nan
        verdict = verify_strided_checksums(
            s, fp16_matmul(q, kc1), fp16_matmul(q, kc2), stride=8, atol=1e-3, rtol=0.02
        )
        assert verdict.detected >= 1
        assert verdict.corrected == 1
        assert verdict.corrections[0].row == 5
        assert verdict.corrections[0].col == 19
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, expected, atol=0.5)

    def test_multiple_errors_in_distinct_stride_classes_corrected(self, rng):
        # The 8-wide checksum corrects several errors per row as long as no
        # two share a stride class (Section 3.3).
        q = rng.standard_normal((8, 64)).astype(np.float32)
        k = rng.standard_normal((32, 64)).astype(np.float32)
        s = fp16_matmul(q, k.T)
        expected = s.copy()
        kc1, kc2 = encode_strided_row_checksums(k.T, stride=8)
        for col in (0, 1, 2, 3, 4):  # five errors, all in row 2, distinct classes
            s[2, col] += 25.0
        verdict = verify_strided_checksums(
            s, fp16_matmul(q, kc1), fp16_matmul(q, kc2), stride=8, atol=1e-3, rtol=0.02
        )
        assert verdict.corrected == 5
        np.testing.assert_allclose(s, expected, atol=0.5)

    def test_two_errors_in_same_stride_class_not_correctable(self, rng):
        q = rng.standard_normal((8, 64)).astype(np.float32)
        k = rng.standard_normal((32, 64)).astype(np.float32)
        s = fp16_matmul(q, k.T)
        reference = s.copy()
        kc1, kc2 = encode_strided_row_checksums(k.T, stride=8)
        s[2, 3] += 25.0
        s[2, 11] += 25.0  # same class: 3 and 3 + 8
        verify_strided_checksums(
            s, fp16_matmul(q, kc1), fp16_matmul(q, kc2), stride=8, atol=1e-3, rtol=0.02
        )
        assert np.max(np.abs(s[2] - reference[2])) > 1.0

    def test_detection_reports_residual_magnitude(self, rng):
        q = rng.standard_normal((8, 64)).astype(np.float32)
        k = rng.standard_normal((16, 64)).astype(np.float32)
        s = fp16_matmul(q, k.T)
        kc1, kc2 = encode_strided_row_checksums(k.T, stride=8)
        s[0, 0] += 10.0
        verdict = verify_strided_checksums(
            s, fp16_matmul(q, kc1), fp16_matmul(q, kc2), stride=8, atol=1e-3, rtol=0.02
        )
        assert verdict.max_residual > 5.0

    def test_verdict_merge(self):
        from repro.gemm.checksum import ChecksumVerdict, Correction

        a = ChecksumVerdict(detected=1, corrections=[Correction(0, 0, 1.0)], max_residual=2.0)
        b = ChecksumVerdict(detected=2, uncorrectable=1, max_residual=5.0)
        a.merge(b)
        assert a.detected == 3
        assert a.corrected == 1
        assert a.uncorrectable == 1
        assert a.max_residual == 5.0
        assert not a.clean
