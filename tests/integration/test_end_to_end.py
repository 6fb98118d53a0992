"""Integration tests crossing module boundaries: model + faults + campaigns + cost model."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    A100_PCIE_40GB,
    AttentionConfig,
    AttentionCostModel,
    AttentionWorkload,
    DecoupledFTAttention,
    EFTAttention,
    EFTAttentionOptimized,
    FaultInjector,
    FaultSite,
)
from repro.attention.standard import standard_attention
from repro.fault.models import FaultSpec
from repro.transformer import GPT2_SMALL, TransformerCostModel, TransformerModel


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("package", ["repro.fault", "repro.exec", "repro.store"])
    def test_subpackage_exports(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"

    @pytest.mark.parametrize(
        "package, deferred",
        [
            ("repro", ["repro.exec", "repro.store"]),
            ("repro.fault", ["repro.fault.runner", "repro.fault.dictionary"]),
        ],
    )
    def test_lazy_exports_defer_their_modules(self, package, deferred):
        """PEP 562 exports keep the import cheap: the engine, stores, kernel
        registry and fault dictionary load on first use."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        code = f"import sys, {package}; print([m for m in {deferred!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestFaultCampaignOnEFTA:
    """A miniature end-to-end injection campaign across all protected sites."""

    SITES = [
        FaultSite.GEMM_QK,
        FaultSite.SUBTRACT_EXP,
        FaultSite.GEMM_PV,
        FaultSite.RESCALE,
        FaultSite.NORMALIZE,
    ]

    def test_campaign_corrects_high_order_faults(self, rng):
        q = rng.standard_normal((64, 32)).astype(np.float32)
        k = rng.standard_normal((64, 32)).astype(np.float32)
        v = rng.standard_normal((64, 32)).astype(np.float32)
        cfg = AttentionConfig(seq_len=64, head_dim=32, block_size=32)
        efta = EFTAttentionOptimized(cfg)
        reference = standard_attention(q, k, v)
        corrected = 0
        trials = 0
        for site in self.SITES:
            for seed in range(3):
                injector = FaultInjector.single_bit_flip(
                    site, seed=seed, bit=13 if site in (FaultSite.GEMM_QK, FaultSite.SUBTRACT_EXP) else 27,
                    dtype="fp16" if site in (FaultSite.GEMM_QK, FaultSite.SUBTRACT_EXP) else "fp32",
                    block=(0, 1),
                )
                out, _ = efta(q, k, v, injector=injector)
                trials += 1
                if np.allclose(out, reference, rtol=5e-2, atol=5e-2):
                    corrected += 1
        assert corrected / trials > 0.85

    def test_same_faults_handled_by_decoupled_baseline(self, rng):
        q = rng.standard_normal((64, 32)).astype(np.float32)
        k = rng.standard_normal((64, 32)).astype(np.float32)
        v = rng.standard_normal((64, 32)).astype(np.float32)
        cfg = AttentionConfig(seq_len=64, head_dim=32, block_size=32)
        baseline = DecoupledFTAttention(cfg)
        reference = standard_attention(q, k, v)
        for site in (FaultSite.GEMM_QK, FaultSite.SOFTMAX, FaultSite.GEMM_PV):
            injector = FaultInjector.single_bit_flip(site, seed=1, bit=14, dtype="fp16")
            out, report = baseline(q, k, v, injector=injector)
            assert report.detected_any
            np.testing.assert_allclose(out, reference, rtol=5e-2, atol=5e-2)


class TestModelLevelFaultTolerance:
    def test_token_generation_stable_under_injection(self):
        cfg = GPT2_SMALL.scaled(hidden_dim=32, num_layers=2)
        model = TransformerModel(cfg, seed=3, attention_block_size=16)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(1, 16))
        clean_token, _ = model.generate_token(ids)
        injector = FaultInjector(
            specs=[
                FaultSpec(site=FaultSite.GEMM_QK, bit=14),
                FaultSpec(site=FaultSite.LINEAR, bit=14, occurrence=2),
            ],
            seed=11,
        )
        faulty_token, output = model.generate_token(ids, injector=injector)
        assert output.report.detected_any
        np.testing.assert_array_equal(clean_token, faulty_token)


class TestSimulationConsistency:
    def test_kernel_and_model_cost_are_consistent(self):
        # The attention protection overhead inside the Figure-15 model must be
        # of the same order as the standalone EFTA overhead.
        attention = AttentionCostModel(
            AttentionWorkload(batch=1, heads=12, seq_len=512, head_dim=64)
        ).efta_breakdown(unified_verification=True)
        model_report = TransformerCostModel(GPT2_SMALL).report()
        assert 0.0 < model_report.detection_overhead < attention.overhead

    def test_simulated_milliseconds_are_realistic(self):
        workload = AttentionWorkload.with_total_tokens(2048, heads=16, head_dim=64)
        bd = AttentionCostModel(workload, A100_PCIE_40GB).efta_breakdown()
        assert 1e-4 < bd.total_time < 1e-1

    def test_efta_class_and_cost_model_agree_on_variant_ordering(self):
        cfg = AttentionConfig(seq_len=2048, head_dim=64)
        unopt = EFTAttention(cfg).cost_breakdown(batch=8, heads=16)
        opt = EFTAttentionOptimized(cfg).cost_breakdown(batch=8, heads=16)
        assert opt.total_time < unopt.total_time
        assert opt.overhead < unopt.overhead
