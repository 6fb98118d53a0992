"""Tests for the FP16 mixed-precision helpers."""

import numpy as np
import pytest

from repro.fp.float16 import (
    FP16_MAX,
    FP16_MIN_NORMAL,
    FP16Operand,
    fp16_matmul,
    fp16_quantize,
    machine_epsilon,
    to_fp16,
    to_fp32,
)


class TestCasts:
    def test_to_fp16_dtype(self):
        assert to_fp16([1.0, 2.0]).dtype == np.float16

    def test_to_fp32_dtype(self):
        assert to_fp32([1.0, 2.0]).dtype == np.float32

    def test_fp16_max_saturates_to_inf(self):
        assert np.isinf(to_fp16(1e6))

    def test_fp16_constants(self):
        assert FP16_MAX == pytest.approx(65504.0)
        assert 0.0 < FP16_MIN_NORMAL < 1e-4

    def test_quantize_round_trips_through_half(self):
        x = np.float32(1.0 + 1e-4)
        q = fp16_quantize(x)
        assert q.dtype == np.float32
        assert q == np.float32(np.float16(x))

    def test_quantize_loses_small_differences(self):
        a = fp16_quantize(1.0)
        b = fp16_quantize(1.0 + 1e-5)
        assert a == b

    def test_machine_epsilon_fp16(self):
        assert machine_epsilon(np.float16) == pytest.approx(2**-10)

    def test_machine_epsilon_fp32(self):
        assert machine_epsilon(np.float32) == pytest.approx(2**-23)


class TestFp16Matmul:
    def test_matches_exact_for_representable_values(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32)
        np.testing.assert_allclose(fp16_matmul(a, b), a @ b)

    def test_returns_float32(self):
        a = np.ones((4, 8), dtype=np.float64)
        b = np.ones((8, 3), dtype=np.float64)
        assert fp16_matmul(a, b).dtype == np.float32

    def test_quantizes_operands(self):
        # 1 + 2^-12 is not representable in FP16, so the product collapses to 1.
        a = np.array([[1.0 + 2**-12]], dtype=np.float32)
        b = np.array([[1.0]], dtype=np.float32)
        assert fp16_matmul(a, b)[0, 0] == 1.0

    def test_accumulates_in_float32(self):
        # Summing 4096 copies of 1.0 exceeds FP16 integer precision (2048) but
        # not FP32: an FP16 accumulator would not represent 4096 exactly... it
        # would, but 4097 would not; use 0.5 steps to expose the difference.
        a = np.full((1, 4096), 1.0, dtype=np.float32)
        b = np.full((4096, 1), 1.0, dtype=np.float32)
        assert fp16_matmul(a, b)[0, 0] == 4096.0

    def test_batched_operands(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4, 5)).astype(np.float32)
        b = rng.standard_normal((3, 5, 2)).astype(np.float32)
        out = fp16_matmul(a, b)
        assert out.shape == (3, 4, 2)
        np.testing.assert_allclose(out, np.matmul(a, b), rtol=5e-3, atol=5e-3)

    def test_close_to_exact_for_small_matrices(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        np.testing.assert_allclose(fp16_matmul(a, b), a @ b, rtol=2e-2, atol=2e-2)


def _bits(x: np.ndarray) -> np.ndarray:
    """float32 values as their bit patterns (NaNs compare by payload)."""
    return np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)


def _matmul_operands(shape: str, layout: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """Unrounded float32 operands, some beyond the FP16 range, in the given layout."""
    lead = () if shape == "2d" else (3,)
    a = (rng.standard_normal(lead + (17, 24)) * 40).astype(np.float32)
    b = (rng.standard_normal(lead + (24, 9)) * 40).astype(np.float32)
    a.reshape(-1)[::53] = 7.0e4  # rounds to inf in FP16
    b.reshape(-1)[::41] = 1.0e-6  # an FP16 subnormal
    if layout == "swapaxes":
        # The views the attention kernels pass: K^T of a row-major K.
        a = np.swapaxes(np.ascontiguousarray(np.swapaxes(a, -1, -2)), -1, -2)
        b = np.swapaxes(np.ascontiguousarray(np.swapaxes(b, -1, -2)), -1, -2)
    return a, b


class TestFP16Operand:
    def test_every_fp16_value_survives_unchanged(self):
        # All 65,536 bit patterns: NaN payloads (quiet and signalling),
        # subnormals, both zeros and both infinities included.
        patterns = np.arange(2**16, dtype=np.uint32).astype(np.uint16)
        widened = patterns.view(np.float16).astype(np.float32)
        operand = FP16Operand(widened)
        assert operand.values.dtype == np.float32
        assert np.array_equal(_bits(operand.values), _bits(widened))

    def test_building_from_unrounded_data_rounds_it(self):
        x = np.array([1.0 + 2**-12, 1.0e-8, 7.0e4, -3.14159], dtype=np.float32)
        with np.errstate(over="ignore"):
            operand = FP16Operand(x)
        assert np.array_equal(_bits(operand.values), _bits(fp16_quantize(x)))
        assert operand.values[0] == 1.0
        assert operand.values[1] == 0.0
        assert np.isinf(operand.values[2])
        assert not np.array_equal(operand.values, x)

    def test_wrapping_an_operand_reuses_its_rounding(self):
        operand = FP16Operand(np.ones((2, 3), dtype=np.float32))
        assert FP16Operand(operand).values is operand.values

    @pytest.mark.parametrize("layout", ["c_order", "swapaxes"])
    @pytest.mark.parametrize("shape", ["2d", "stacked"])
    def test_matmul_on_rounded_operands_is_bitwise_the_plain_one(self, shape, layout):
        a, b = _matmul_operands(shape, layout, np.random.default_rng(3))
        with np.errstate(over="ignore", invalid="ignore"):
            a_op, b_op = FP16Operand(a), FP16Operand(b)
            expected = fp16_matmul(a, b)
            for lhs, rhs in ((a_op, b_op), (a_op, b), (a, b_op)):
                out = fp16_matmul(lhs, rhs)
                assert out.dtype == np.float32
                assert np.array_equal(_bits(out), _bits(expected))
        # The rounded copy keeps the view's memory order, which picks the BLAS call.
        for raw, operand in ((a, a_op), (b, b_op)):
            assert np.array_equal(np.argsort(operand.values.strides), np.argsort(raw.strides))

    @pytest.mark.parametrize("layout", ["c_order", "swapaxes"])
    def test_views_multiply_like_the_sliced_arrays(self, layout):
        a, b = _matmul_operands("stacked", layout, np.random.default_rng(4))
        with np.errstate(over="ignore", invalid="ignore"):
            a_op, b_op = FP16Operand(a), FP16Operand(b)
            for t in range(a.shape[0]):
                assert np.array_equal(
                    _bits(fp16_matmul(a_op[t], b_op[t])), _bits(fp16_matmul(a[t], b[t]))
                )
            block = fp16_matmul(a_op[:, 4:11], b_op[..., 2:7])
            assert np.array_equal(_bits(block), _bits(fp16_matmul(a[:, 4:11], b[..., 2:7])))
        assert a_op[1, None].shape == (1, 17, 24)

    def test_no_arithmetic_and_no_writes(self):
        operand = FP16Operand(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(TypeError):
            operand + 1.0
        with pytest.raises(TypeError):
            np.ones((2, 2), dtype=np.float32) * operand
        with pytest.raises(TypeError):
            np.matmul(operand, operand)
        with pytest.raises(ValueError):
            operand.values[0, 0] = 3.0
        with pytest.raises(AttributeError):
            operand.extra = 1

    @pytest.mark.parametrize("index", [np.array([0, 1]), [0], np.array([True, False]), True])
    def test_only_basic_indexing(self, index):
        with pytest.raises(TypeError, match="basic indexing"):
            FP16Operand(np.ones((2, 2), dtype=np.float32))[index]
