"""Tests for the FP16 mixed-precision helpers."""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro import scratch
from repro.fp import float16
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


# --------------------------------------------------------------------------- #
# Integer rounding of large float32 arrays
# --------------------------------------------------------------------------- #
def _numpy_cast(x: np.ndarray) -> np.ndarray:
    """The reference: NumPy's float32 -> float16 -> float32 cast."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float16).astype(np.float32)


def _quantize(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return fp16_quantize(x)


def _assert_same_rounding(x: np.ndarray) -> None:
    got, want = _quantize(x), _numpy_cast(x)
    assert got.dtype == np.float32
    assert got.strides == want.strides
    assert np.array_equal(_bits(got), _bits(want))


def _boundary_patterns() -> np.ndarray:
    """Float32 bit patterns at every edge of the integer rounding, both signs.

    The neighbours of 2**-14 (the smallest FP16 normal), 65504 (the largest
    finite FP16), 65519 and 65520 (the last value rounding to 65504, and the
    tie that rounds to infinity) and 65536; ties, near-ties and carries into
    the exponent at several exponents; float32 and FP16 subnormals; zeros,
    infinities and NaN payloads, including payload bits FP16 drops.
    """
    edges = [2.0**-14, 65504.0, 65519.0, 65520.0, 65536.0, 2.0**-15, 2.0**-24, 2.0**-25]
    patterns = [
        int(np.float32(edge).view(np.uint32)) + step for edge in edges for step in range(-3, 4)
    ]
    for exponent in (-14, -13, -1, 0, 1, 10, 15):
        base = int(np.float32(2.0**exponent).view(np.uint32))
        for mantissa in (0x000000, 0x3FF000, 0x7FE000, 0x7FF000):  # kept bits even / odd / all ones
            for low in (0x0000, 0x0FFF, 0x1000, 0x1001, 0x1FFF):  # below, at and above the tie
                patterns.append(base | mantissa | low)
    patterns += [
        0x00000000, 0x00000001, 0x00400000, 0x007FFFFF,  # zero, float32 subnormals
        0x7F800000, 0x7F800001, 0x7F801000, 0x7FA00000, 0x7FC00000, 0x7FC01FFF, 0x7FFFFFFF,
    ]
    bits = np.array(patterns, dtype=np.uint32)
    return np.concatenate([bits, bits | np.uint32(0x80000000)])


class TestIntegerRounding:
    """``fp16_quantize`` is NumPy's cast, bit for bit, on every path."""

    def test_boundary_patterns_on_both_paths(self):
        patterns = _boundary_patterns().view(np.float32)
        assert patterns.size < float16._INTEGER_ROUNDING_MIN_SIZE
        _assert_same_rounding(patterns)  # NumPy's cast
        large = np.resize(patterns, 4 * float16._INTEGER_ROUNDING_MIN_SIZE)
        _assert_same_rounding(large)  # integer rounding, specials cast

    def test_one_million_random_bit_patterns(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2**32, size=2**20, dtype=np.uint64).astype(np.uint32)
        _assert_same_rounding(bits.view(np.float32))

    @pytest.mark.parametrize("size", [4095, 4096])
    def test_threshold(self, size):
        bits = np.random.default_rng(size).integers(0x38800000, 0x477FF000, size, dtype=np.uint32)
        _assert_same_rounding(bits.view(np.float32))

    def test_only_elements_outside_the_normal_range_take_the_cast(self):
        x = np.random.default_rng(1).standard_normal(8192).astype(np.float32) + 8.0
        with mock.patch.object(float16, "_numpy_quantize", wraps=float16._numpy_quantize) as cast:
            fp16_quantize(x)
            assert cast.call_count == 0
            x[[3, 5000]] = [np.inf, 1e-9]
            _assert_same_rounding(x)
            assert [call.args[0].size for call in cast.call_args_list[:1]] == [2]

    def test_memory_order_of_views_is_kept(self):
        # The order of a rounded operand picks the BLAS call, so it must be
        # the one NumPy's cast gives.
        x = np.random.default_rng(2).standard_normal((4, 64, 96)).astype(np.float32)
        views = (
            np.swapaxes(x, -1, -2),
            x[:, ::2, 1:],
            x[::-1, :, ::-3],
            np.asfortranarray(x),
            x.reshape(-1)[::5],
        )
        for view in views:
            assert view.size >= float16._INTEGER_ROUNDING_MIN_SIZE
            _assert_same_rounding(view)

    @pytest.mark.parametrize("in_frame", [False, True], ids=["fresh-out", "taken-out"])
    def test_out_receives_the_same_bits(self, in_frame):
        patterns = _boundary_patterns().view(np.float32)
        for x in (patterns, np.resize(patterns, 4 * float16._INTEGER_ROUNDING_MIN_SIZE)):
            with scratch.frame() if in_frame else nullcontext():
                out = scratch.take(x.shape)
                got = fp16_quantize(x, out=out)
                assert got is out
                assert np.array_equal(_bits(got), _bits(_numpy_cast(x)))

    def test_other_dtypes_and_scalars_take_the_cast(self):
        x = np.random.default_rng(3).standard_normal(5000)
        assert np.array_equal(_bits(_quantize(x)), _bits(_numpy_cast(x)))  # float64 rounds once
        assert _quantize(np.float32(1.0 + 2**-12)) == 1.0

    @pytest.mark.slow
    def test_every_pattern_around_the_normal_range(self):
        # [2**-14, 65520) in magnitude plus 2**20 patterns on each side, both
        # signs: about 0.5G patterns, in 4M-pattern slices.
        low, high = 0x38800000 - 2**20, 0x477FF000 + 2**20
        step = 2**22
        for sign in (0, 0x80000000):
            for start in range(low, high, step):
                bits = np.arange(start, min(start + step, high), dtype=np.uint32)
                x = (bits | np.uint32(sign)).view(np.float32)
                assert np.array_equal(_bits(_quantize(x)), _bits(_numpy_cast(x))), hex(start)
