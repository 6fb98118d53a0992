"""Tests for the standard attention oracle and the flash-style tiled attention.

The flash-style kernel is scheme ``"none"``'s (``UnprotectedAttention``):
FP16 score GEMM, FP32 softmax and accumulation.  It is checked against the
standard attention within FP16 round-off and against the scalar oracle in
``flash_oracle.py`` bit for bit.
"""

import numpy as np
import pytest

from flash_oracle import flash_single
from repro.attention.standard import standard_attention
from repro.attention.softmax import stable_softmax
from repro.core.config import AttentionConfig
from repro.core.schemes import build_scheme
from repro.fault.injector import _BatchFaultRouter

def unprotected(q, k, v, block_size):
    """Scheme ``"none"``'s kernel on one fault-free ``(..., seq, dim)`` problem."""
    cfg = AttentionConfig(seq_len=q.shape[-2], head_dim=q.shape[-1], block_size=block_size)
    out, report = build_scheme("none", cfg)(q, k, v)
    assert report.clean
    return out


def assert_matches_standard(q, k, v, block_size):
    # Scheme "none" rounds only the score GEMM to FP16, the mixed-precision
    # standard attention both GEMMs; they differ by about 1e-3 on unit inputs.
    np.testing.assert_allclose(
        unprotected(q, k, v, block_size),
        standard_attention(q, k, v, mixed_precision=True),
        rtol=5e-3,
        atol=5e-3,
    )


class TestStandardAttention:
    def test_matches_manual_computation(self, rng):
        q = rng.standard_normal((6, 4)).astype(np.float32)
        k = rng.standard_normal((6, 4)).astype(np.float32)
        v = rng.standard_normal((6, 4)).astype(np.float32)
        scale = 1 / np.sqrt(4)
        expected = stable_softmax(q @ k.T * scale) @ v
        np.testing.assert_allclose(standard_attention(q, k, v), expected, rtol=1e-5, atol=1e-6)

    def test_custom_scale(self, rng):
        q = rng.standard_normal((4, 4)).astype(np.float32)
        k = rng.standard_normal((4, 4)).astype(np.float32)
        v = rng.standard_normal((4, 4)).astype(np.float32)
        out1 = standard_attention(q, k, v, scale=0.1)
        out2 = standard_attention(q, k, v, scale=1.0)
        assert not np.allclose(out1, out2)

    def test_batched_shapes(self, qkv):
        q, k, v = qkv
        out = standard_attention(q, k, v)
        assert out.shape == q.shape

    def test_cross_attention_shapes(self, rng):
        q = rng.standard_normal((5, 8)).astype(np.float32)
        k = rng.standard_normal((9, 8)).astype(np.float32)
        v = rng.standard_normal((9, 8)).astype(np.float32)
        assert standard_attention(q, k, v).shape == (5, 8)

    def test_head_dim_mismatch_rejected(self, rng):
        q = rng.standard_normal((4, 8)).astype(np.float32)
        k = rng.standard_normal((4, 6)).astype(np.float32)
        v = rng.standard_normal((4, 6)).astype(np.float32)
        with pytest.raises(ValueError):
            standard_attention(q, k, v)

    def test_kv_length_mismatch_rejected(self, rng):
        q = rng.standard_normal((4, 8)).astype(np.float32)
        k = rng.standard_normal((6, 8)).astype(np.float32)
        v = rng.standard_normal((5, 8)).astype(np.float32)
        with pytest.raises(ValueError):
            standard_attention(q, k, v)

    def test_attention_rows_are_convex_combinations(self, rng):
        # Each output row is a convex combination of value rows, so it stays
        # within the per-feature min/max of V.
        q = rng.standard_normal((8, 16)).astype(np.float32)
        k = rng.standard_normal((8, 16)).astype(np.float32)
        v = rng.standard_normal((8, 16)).astype(np.float32)
        out = standard_attention(q, k, v)
        assert np.all(out <= v.max(axis=0) + 1e-5)
        assert np.all(out >= v.min(axis=0) - 1e-5)

    def test_mixed_precision_close_to_fp32(self, rng):
        q = rng.standard_normal((16, 32)).astype(np.float32)
        k = rng.standard_normal((16, 32)).astype(np.float32)
        v = rng.standard_normal((16, 32)).astype(np.float32)
        a = standard_attention(q, k, v)
        b = standard_attention(q, k, v, mixed_precision=True)
        np.testing.assert_allclose(a, b, rtol=5e-3, atol=5e-3)


class TestFlashAttention:
    @pytest.mark.parametrize("block_size", [8, 16, 32, 96, 128])
    def test_matches_standard_attention(self, single_head_qkv, block_size):
        assert_matches_standard(*single_head_qkv, block_size)

    def test_batched_matches_standard(self, qkv):
        assert_matches_standard(*qkv, 32)

    def test_block_size_larger_than_sequence(self, single_head_qkv):
        assert_matches_standard(*single_head_qkv, 1024)

    def test_ragged_block_sizes(self, rng):
        q = rng.standard_normal((50, 16)).astype(np.float32)
        k = rng.standard_normal((50, 16)).astype(np.float32)
        v = rng.standard_normal((50, 16)).astype(np.float32)
        assert_matches_standard(q, k, v, 16)

    def test_close_to_fp32_attention(self, single_head_qkv):
        q, k, v = single_head_qkv
        out = unprotected(q, k, v, 32)
        np.testing.assert_allclose(out, standard_attention(q, k, v), rtol=2e-2, atol=2e-2)

    def test_mismatched_leading_dims_rejected(self, rng):
        q = rng.standard_normal((2, 8, 4)).astype(np.float32)
        k = rng.standard_normal((3, 8, 4)).astype(np.float32)
        v = rng.standard_normal((3, 8, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            unprotected(q, k, v, 4)


class TestTilingHelpers:
    def test_split_and_merge_heads_round_trip(self, rng):
        from repro.attention.tiling import merge_heads, split_heads

        x = rng.standard_normal((2, 10, 24)).astype(np.float32)
        heads = split_heads(x, 4)
        assert heads.shape == (2, 4, 10, 6)
        np.testing.assert_array_equal(merge_heads(heads), x)

    def test_split_heads_invalid_divisor(self, rng):
        from repro.attention.tiling import split_heads

        with pytest.raises(ValueError):
            split_heads(rng.standard_normal((1, 4, 10)), 3)

    def test_num_blocks_and_partition(self):
        from repro.attention.tiling import num_blocks, partition_blocks

        assert num_blocks(100, 32) == 4
        blocks = list(partition_blocks(100, 32))
        assert blocks[0] == slice(0, 32)
        assert blocks[-1] == slice(96, 100)
        assert sum(b.stop - b.start for b in blocks) == 100

    def test_num_blocks_invalid(self):
        from repro.attention.tiling import num_blocks

        with pytest.raises(ValueError):
            num_blocks(10, 0)


class TestFlashStackedParity:
    """Scheme ``"none"``'s kernel is bitwise the per-slice oracle, at any trial stack."""

    SHAPES = [
        # (lead, seq_len, kv_len, head_dim, block_size)
        ((), 16, 16, 8, 16),          # single slice, one full block
        ((1, 2), 16, 16, 8, 4),       # tiny batch, several blocks
        ((3, 4), 17, 17, 8, 5),       # ragged: seq not a block multiple
        ((2, 2), 9, 13, 6, 4),        # cross-attention: kv_len != seq_len
        ((5,), 8, 8, 3, 16),          # block larger than sequence, odd dim
    ]

    @pytest.mark.parametrize("lead,seq,kv,dim,block", SHAPES)
    @pytest.mark.parametrize("trials", [1, 3])
    def test_stacked_bitwise_equals_single(self, rng, lead, seq, kv, dim, block, trials):
        q = rng.standard_normal((trials,) + lead + (seq, dim)).astype(np.float32)
        k = rng.standard_normal((trials,) + lead + (kv, dim)).astype(np.float32)
        v = rng.standard_normal((trials,) + lead + (kv, dim)).astype(np.float32)
        cfg = AttentionConfig(seq_len=seq, head_dim=dim, block_size=block)
        router = _BatchFaultRouter([None] * trials)
        out, reports = build_scheme("none", cfg).forward_batched(q, k, v, router)
        assert all(report.clean for report in reports)
        q2 = q.reshape((-1, seq, dim))
        k2 = k.reshape((-1, kv, dim))
        v2 = v.reshape((-1, kv, dim))
        for g in range(q2.shape[0]):
            oracle = flash_single(q2[g], k2[g], v2[g], cfg.effective_scale, block)
            assert np.array_equal(out.reshape((-1, seq, dim))[g], oracle)

    def test_kv_sequence_mismatch_rejected(self, rng):
        q = rng.standard_normal((2, 8, 4)).astype(np.float32)
        k = rng.standard_normal((2, 8, 4)).astype(np.float32)
        v = rng.standard_normal((2, 7, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="share the sequence dimension"):
            unprotected(q, k, v, 4)

    def test_kv_sequence_mismatch_rejected_2d(self, rng):
        q = rng.standard_normal((8, 4)).astype(np.float32)
        k = rng.standard_normal((6, 4)).astype(np.float32)
        v = rng.standard_normal((5, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="k has 6 rows but v has 5"):
            unprotected(q, k, v, 4)
