"""Correctness tests for end-to-end fault tolerant attention (both variants)."""

import numpy as np
import pytest

from repro.attention.standard import standard_attention
from repro.core.config import AttentionConfig
from repro.core.efta import EFTAttention
from repro.core.efta_optimized import EFTAttentionOptimized

VARIANTS = [EFTAttention, EFTAttentionOptimized]


@pytest.fixture(params=VARIANTS, ids=["efta", "efta_optimized"])
def efta_cls(request):
    return request.param


class TestCleanCorrectness:
    def test_matches_standard_attention_single_head(self, efta_cls, single_head_qkv, small_config):
        q, k, v = single_head_qkv
        out, report = efta_cls(small_config)(q, k, v)
        np.testing.assert_allclose(out, standard_attention(q, k, v), rtol=5e-3, atol=5e-3)
        assert report.clean

    def test_matches_standard_attention_batched(self, efta_cls, qkv, small_config):
        q, k, v = qkv
        out, report = efta_cls(small_config)(q, k, v)
        np.testing.assert_allclose(out, standard_attention(q, k, v), rtol=5e-3, atol=5e-3)
        assert report.clean

    @pytest.mark.parametrize("block_size", [16, 32, 96])
    def test_block_size_does_not_change_result(self, efta_cls, single_head_qkv, block_size):
        q, k, v = single_head_qkv
        cfg = AttentionConfig(seq_len=q.shape[0], head_dim=q.shape[1], block_size=block_size)
        out, _ = efta_cls(cfg)(q, k, v)
        np.testing.assert_allclose(out, standard_attention(q, k, v), rtol=5e-3, atol=5e-3)

    def test_ragged_sequence_length(self, efta_cls, rng):
        q = rng.standard_normal((50, 32)).astype(np.float32)
        k = rng.standard_normal((50, 32)).astype(np.float32)
        v = rng.standard_normal((50, 32)).astype(np.float32)
        cfg = AttentionConfig(seq_len=50, head_dim=32, block_size=16)
        out, report = efta_cls(cfg)(q, k, v)
        np.testing.assert_allclose(out, standard_attention(q, k, v), rtol=5e-3, atol=5e-3)
        assert report.clean

    def test_more_keys_than_configured_seq_len(self, efta_cls, rng):
        # 256 key/value rows against a configured seq_len of 64: the rowsum's
        # upper bound is the number of keys attended so far, not seq_len.
        q = rng.standard_normal((64, 16)).astype(np.float32)
        k = rng.standard_normal((256, 16)).astype(np.float32)
        v = rng.standard_normal((256, 16)).astype(np.float32)
        out, report = efta_cls(AttentionConfig(64, 16, block_size=16))(q, k, v)
        assert report.clean, report.summary()
        expected = standard_attention(q, k, v, mixed_precision=True)
        np.testing.assert_allclose(out, expected, rtol=5e-3, atol=5e-3)

    def test_no_false_alarms_across_seeds(self, efta_cls, small_config):
        # Fault-free runs must never raise alarms at the calibrated thresholds.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q = rng.standard_normal((64, 32)).astype(np.float32)
            k = rng.standard_normal((64, 32)).astype(np.float32)
            v = rng.standard_normal((64, 32)).astype(np.float32)
            cfg = AttentionConfig(seq_len=64, head_dim=32, block_size=32)
            _, report = efta_cls(cfg)(q, k, v)
            assert report.clean, f"false alarm with seed {seed}: {report.summary()}"

    def test_peaked_attention_inputs(self, efta_cls, rng):
        # Large-magnitude scores (sharply peaked softmax) must stay stable.
        q = 4.0 * rng.standard_normal((48, 32)).astype(np.float32)
        k = 4.0 * rng.standard_normal((48, 32)).astype(np.float32)
        v = rng.standard_normal((48, 32)).astype(np.float32)
        cfg = AttentionConfig(seq_len=48, head_dim=32, block_size=16)
        out, report = efta_cls(cfg)(q, k, v)
        np.testing.assert_allclose(out, standard_attention(q, k, v), rtol=1e-2, atol=1e-2)
        assert report.clean

    def test_output_dtype_and_shape(self, efta_cls, qkv, small_config):
        q, k, v = qkv
        out, _ = efta_cls(small_config)(q, k, v)
        assert out.shape == q.shape
        assert out.dtype == np.float32

    def test_custom_scale(self, efta_cls, single_head_qkv):
        q, k, v = single_head_qkv
        cfg = AttentionConfig(seq_len=q.shape[0], head_dim=q.shape[1], block_size=32, scale=0.05)
        out, _ = efta_cls(cfg)(q, k, v)
        np.testing.assert_allclose(out, standard_attention(q, k, v, scale=0.05), rtol=5e-3, atol=5e-3)

    def test_mismatched_leading_dims_rejected(self, efta_cls, rng, small_config):
        q = rng.standard_normal((2, 16, 32)).astype(np.float32)
        k = rng.standard_normal((3, 16, 32)).astype(np.float32)
        with pytest.raises(ValueError):
            efta_cls(small_config)(q, k, k)

    def test_mismatched_head_dim_rejected(self, efta_cls, rng, small_config):
        q = rng.standard_normal((16, 32)).astype(np.float32)
        k = rng.standard_normal((16, 16)).astype(np.float32)
        v = rng.standard_normal((16, 16)).astype(np.float32)
        with pytest.raises(ValueError):
            efta_cls(small_config)(q, k, v)


class TestVariantEquivalence:
    def test_both_variants_produce_identical_clean_outputs(self, qkv, small_config):
        q, k, v = qkv
        out_a, _ = EFTAttention(small_config)(q, k, v)
        out_b, _ = EFTAttentionOptimized(small_config)(q, k, v)
        np.testing.assert_allclose(out_a, out_b, rtol=1e-6, atol=1e-6)

    def test_unified_flag_values(self):
        assert EFTAttention.unified_verification is False
        assert EFTAttentionOptimized.unified_verification is True


class TestCostBreakdownIntegration:
    def test_cost_breakdown_exposes_protection_components(self, small_config):
        bd = EFTAttentionOptimized(small_config).cost_breakdown(batch=4, heads=8)
        assert set(bd.protection) == {"qk_protection", "softmax_protection", "pv_protection"}
        assert bd.total_time > bd.base_time

    def test_optimized_cost_lower_than_unoptimized(self, small_config):
        opt = EFTAttentionOptimized(small_config).cost_breakdown(batch=4, heads=8)
        unopt = EFTAttention(small_config).cost_breakdown(batch=4, heads=8)
        assert opt.total_time < unopt.total_time
