"""Property-based tests of the attention kernels and the fault-tolerance invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attention.standard import standard_attention
from repro.core.config import AttentionConfig
from repro.core.efta_optimized import EFTAttentionOptimized
from repro.core.schemes import build_scheme
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite

SETTINGS = dict(max_examples=15, deadline=None)


def random_qkv(seed, seq_len, head_dim, scale=1.0):
    rng = np.random.default_rng(seed)
    q = (scale * rng.standard_normal((seq_len, head_dim))).astype(np.float32)
    k = (scale * rng.standard_normal((seq_len, head_dim))).astype(np.float32)
    v = rng.standard_normal((seq_len, head_dim)).astype(np.float32)
    return q, k, v


class TestAttentionEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        seq_len=st.integers(8, 80),
        head_dim=st.sampled_from([8, 16, 32]),
        block_size=st.sampled_from([8, 16, 32]),
    )
    @settings(**SETTINGS)
    def test_unprotected_equals_standard(self, seed, seq_len, head_dim, block_size):
        # Scheme "none" rounds only the score GEMM to FP16, the
        # mixed-precision standard attention both GEMMs.
        q, k, v = random_qkv(seed, seq_len, head_dim)
        cfg = AttentionConfig(seq_len=seq_len, head_dim=head_dim, block_size=block_size)
        out, report = build_scheme("none", cfg)(q, k, v)
        np.testing.assert_allclose(
            out, standard_attention(q, k, v, mixed_precision=True), rtol=5e-3, atol=5e-3
        )
        assert report.clean

    @given(
        seed=st.integers(0, 10_000),
        seq_len=st.integers(16, 72),
        block_size=st.sampled_from([16, 32]),
    )
    @settings(**SETTINGS)
    def test_efta_equals_standard_and_is_clean(self, seed, seq_len, block_size):
        q, k, v = random_qkv(seed, seq_len, 16)
        cfg = AttentionConfig(seq_len=seq_len, head_dim=16, block_size=block_size)
        out, report = EFTAttentionOptimized(cfg)(q, k, v)
        np.testing.assert_allclose(out, standard_attention(q, k, v), rtol=1e-2, atol=1e-2)
        assert report.clean

    @given(seed=st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_attention_output_is_convex_combination(self, seed):
        q, k, v = random_qkv(seed, 32, 16)
        cfg = AttentionConfig(seq_len=32, head_dim=16, block_size=16)
        out, _ = EFTAttentionOptimized(cfg)(q, k, v)
        assert np.all(out <= v.max(axis=0) + 1e-3)
        assert np.all(out >= v.min(axis=0) - 1e-3)


class TestFaultToleranceInvariants:
    @given(
        seed=st.integers(0, 10_000),
        site=st.sampled_from([FaultSite.GEMM_QK, FaultSite.SUBTRACT_EXP, FaultSite.GEMM_PV]),
        bit=st.integers(11, 15),
    )
    @settings(**SETTINGS)
    def test_consequential_faults_never_survive_uncorrected_by_much(self, seed, site, bit):
        # For any high-order bit flip in a protected linear/exp stage, the
        # protected output stays close to the fault-free oracle.
        q, k, v = random_qkv(seed, 48, 16)
        cfg = AttentionConfig(seq_len=48, head_dim=16, block_size=16)
        reference = standard_attention(q, k, v)
        injector = FaultInjector.single_bit_flip(site, seed=seed, bit=bit, dtype="fp16")
        out, report = EFTAttentionOptimized(cfg)(q, k, v, injector=injector)
        assert len(report.injected) == 1
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, reference, rtol=5e-2, atol=5e-2)

    @given(seed=st.integers(0, 10_000), bit=st.integers(0, 15))
    @settings(**SETTINGS)
    def test_injector_always_reports_exactly_one_record(self, seed, bit):
        q, k, v = random_qkv(seed, 32, 16)
        cfg = AttentionConfig(seq_len=32, head_dim=16, block_size=16)
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=seed, bit=bit, dtype="fp16")
        _, report = EFTAttentionOptimized(cfg)(q, k, v, injector=injector)
        assert len(report.injected) == 1
        record = report.injected[0]
        assert record.bit == bit
        assert record.site == FaultSite.GEMM_QK
