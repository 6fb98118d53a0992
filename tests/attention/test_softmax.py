"""Tests for softmax primitives and the online softmax state of the flash oracle."""

import numpy as np
import pytest

from flash_oracle import OnlineSoftmaxState
from repro.attention.softmax import block_softmax, log_sum_exp, stable_softmax


class TestStableSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((5, 7)).astype(np.float32)
        p = stable_softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-5)

    def test_matches_naive_softmax(self, rng):
        x = rng.standard_normal((4, 6)).astype(np.float64)
        naive = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(stable_softmax(x), naive, rtol=1e-5)

    def test_large_values_do_not_overflow(self):
        x = np.array([[1000.0, 1000.5, 999.0]], dtype=np.float32)
        p = stable_softmax(x)
        assert np.all(np.isfinite(p))
        assert p[0, 1] == p.max()

    def test_axis_argument(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_allclose(stable_softmax(x, axis=0).sum(axis=0), 1.0, rtol=1e-5)

    def test_invariant_to_constant_shift(self, rng):
        x = rng.standard_normal((2, 5)).astype(np.float32)
        np.testing.assert_allclose(stable_softmax(x), stable_softmax(x + 7.0), rtol=1e-5)


class TestBlockSoftmax:
    def test_numerator_and_rowsum(self, rng):
        s = rng.standard_normal((4, 6)).astype(np.float32)
        m = s.max(axis=1)
        p, rowsum = block_softmax(s, m)
        np.testing.assert_allclose(p, np.exp(s - m[:, None]), rtol=1e-6)
        np.testing.assert_allclose(rowsum, p.sum(axis=1), rtol=1e-6)

    def test_max_entry_is_one(self, rng):
        s = rng.standard_normal((3, 8)).astype(np.float32)
        p, _ = block_softmax(s, s.max(axis=1))
        np.testing.assert_allclose(p.max(axis=1), 1.0, rtol=1e-6)


class TestLogSumExp:
    def test_matches_naive(self, rng):
        x = rng.standard_normal((6, 9))
        np.testing.assert_allclose(log_sum_exp(x), np.log(np.exp(x).sum(axis=-1)), rtol=1e-8)

    def test_stable_for_large_inputs(self):
        x = np.array([1000.0, 1001.0])
        assert np.isfinite(log_sum_exp(x))


class TestOnlineSoftmaxState:
    def test_single_block_equals_direct_softmax(self, rng):
        scores = rng.standard_normal((8, 16)).astype(np.float32)
        values = rng.standard_normal((16, 4)).astype(np.float32)
        state = OnlineSoftmaxState.initial(8, 4)
        state.update(scores, values)
        expected = stable_softmax(scores) @ values
        np.testing.assert_allclose(state.finalize(), expected, rtol=1e-4, atol=1e-5)

    def test_two_blocks_equal_full_softmax(self, rng):
        scores = rng.standard_normal((8, 32)).astype(np.float32)
        values = rng.standard_normal((32, 4)).astype(np.float32)
        state = OnlineSoftmaxState.initial(8, 4)
        state.update(scores[:, :16], values[:16])
        state.update(scores[:, 16:], values[16:])
        expected = stable_softmax(scores) @ values
        np.testing.assert_allclose(state.finalize(), expected, rtol=1e-4, atol=1e-5)

    def test_block_order_does_not_matter(self, rng):
        scores = rng.standard_normal((4, 24)).astype(np.float32)
        values = rng.standard_normal((24, 6)).astype(np.float32)
        forward = OnlineSoftmaxState.initial(4, 6)
        forward.update(scores[:, :12], values[:12])
        forward.update(scores[:, 12:], values[12:])
        backward = OnlineSoftmaxState.initial(4, 6)
        backward.update(scores[:, 12:], values[12:])
        backward.update(scores[:, :12], values[:12])
        np.testing.assert_allclose(forward.finalize(), backward.finalize(), rtol=1e-4, atol=1e-5)

    def test_row_max_is_running_maximum(self, rng):
        scores = rng.standard_normal((4, 20)).astype(np.float32)
        values = rng.standard_normal((20, 3)).astype(np.float32)
        state = OnlineSoftmaxState.initial(4, 3)
        state.update(scores[:, :10], values[:10])
        state.update(scores[:, 10:], values[10:])
        np.testing.assert_allclose(state.row_max, scores.max(axis=1), rtol=1e-6)

    def test_row_sum_matches_global_normaliser(self, rng):
        scores = rng.standard_normal((4, 20)).astype(np.float32)
        values = rng.standard_normal((20, 3)).astype(np.float32)
        state = OnlineSoftmaxState.initial(4, 3)
        state.update(scores[:, :10], values[:10])
        state.update(scores[:, 10:], values[10:])
        expected = np.exp(scores - scores.max(axis=1, keepdims=True)).sum(axis=1)
        np.testing.assert_allclose(state.row_sum, expected, rtol=1e-4)

    def test_update_returns_intermediates(self, rng):
        scores = rng.standard_normal((2, 8)).astype(np.float32)
        values = rng.standard_normal((8, 2)).astype(np.float32)
        state = OnlineSoftmaxState.initial(2, 2)
        info = state.update(scores, values)
        assert set(info) == {"probs", "scale", "new_max", "local_max"}
        assert info["probs"].shape == (2, 8)

    def test_rowsum_lower_bound_holds(self, rng):
        scores = rng.standard_normal((6, 48)).astype(np.float32)
        values = rng.standard_normal((48, 4)).astype(np.float32)
        state = OnlineSoftmaxState.initial(6, 4)
        for start in range(0, 48, 16):
            state.update(scores[:, start : start + 16], values[start : start + 16])
        bound = state.rowsum_lower_bound()
        assert np.all(state.row_sum >= bound - 1e-4)
        assert np.all(bound >= 1.0 - 1e-5)

    def test_empty_state_lower_bound_is_zero(self):
        state = OnlineSoftmaxState.initial(3, 2)
        np.testing.assert_array_equal(state.rowsum_lower_bound(), np.zeros(3, dtype=np.float32))

    def test_finalize_handles_all_masked_rows(self):
        state = OnlineSoftmaxState.initial(2, 2)
        out = state.finalize()
        assert out.shape == (2, 2)
        assert np.all(out == 0.0)
