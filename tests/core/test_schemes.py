"""Scheme-registry tests: registration, parity with the hardwired kernels, goldens.

The refactor's contract is that selecting a scheme *by name* is numerically a
no-op: the registry path must be bit-identical to instantiating the
pre-refactor classes directly (and, for ``"none"``, to the scalar flash
attention oracle).  Golden aggregates at fixed seeds pin the fault-free
numerics of every registered scheme through future refactors.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import AttentionConfig
from repro.core.decoupled import DecoupledFTAttention
from repro.core.efta import EFTAttention
from repro.core.efta_optimized import EFTAttentionOptimized
from repro.core.schemes import (
    ProtectionScheme,
    available_schemes,
    build_scheme,
    get_scheme,
    register_scheme,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "attention"))
from flash_oracle import flash_single  # noqa: E402

BUILTIN_SCHEMES = ["decoupled", "efta", "efta_unified", "none"]

#: Fault-free goldens at seed 2024 (shape (2, 2, 40, 16), block 16):
#: (mean of the output, sum of |output|).  Pinned to 1e-6 relative (loose enough for BLAS/platform accumulation-order differences) -- any
#: change to a kernel's fault-free arithmetic shows up here first.
ATTENTION_GOLDENS = {
    "decoupled": (-0.0059888423420488834, 447.10552978515625),
    "efta": (-0.005989463068544865, 447.1053771972656),
    "efta_unified": (-0.005989463068544865, 447.1053771972656),
    "none": (-0.005986867006868124, 447.101806640625),
}


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(2024)
    q = rng.standard_normal((2, 2, 40, 16)).astype(np.float32)
    k = rng.standard_normal((2, 2, 40, 16)).astype(np.float32)
    v = rng.standard_normal((2, 2, 40, 16)).astype(np.float32)
    cfg = AttentionConfig(seq_len=40, head_dim=16, block_size=16)
    return q, k, v, cfg


class TestRegistry:
    def test_builtin_schemes_registered(self):
        assert available_schemes() == BUILTIN_SCHEMES

    def test_get_scheme_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protection scheme"):
            get_scheme("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("efta")(type("Dup", (ProtectionScheme,), {}))

    def test_scheme_instances_expose_interface(self, problem):
        *_, cfg = problem
        for name in BUILTIN_SCHEMES:
            scheme = build_scheme(name, cfg)
            assert scheme.name == name
            assert scheme.config is cfg
            assert isinstance(scheme.protects_linear, bool)
            bd = scheme.cost_breakdown(2, 2)
            assert bd.total_time > 0
            assert scheme.fits_in_memory(2, 2)

    def test_only_none_leaves_linear_layers_unprotected(self):
        for name in BUILTIN_SCHEMES:
            assert get_scheme(name).protects_linear is (name != "none")


class TestParityWithHardwiredClasses:
    """Registry forward == pre-refactor direct class forward, bit for bit."""

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("efta", EFTAttention),
            ("efta_unified", EFTAttentionOptimized),
            ("decoupled", DecoupledFTAttention),
        ],
    )
    def test_wrapped_kernels_identical(self, problem, name, cls):
        q, k, v, cfg = problem
        out_scheme, rep_scheme = build_scheme(name, cfg)(q, k, v)
        out_direct, rep_direct = cls(cfg)(q, k, v)
        np.testing.assert_array_equal(out_scheme, out_direct)
        assert rep_scheme.clean and rep_direct.clean

    def test_none_identical_to_flash_oracle(self, problem):
        q, k, v, cfg = problem
        out, report = build_scheme("none", cfg)(q, k, v)
        for index in np.ndindex(q.shape[:-2]):
            reference = flash_single(
                q[index], k[index], v[index], cfg.effective_scale, cfg.block_size
            )
            np.testing.assert_array_equal(out[index], reference)
        assert report.clean

    @pytest.mark.parametrize("name", BUILTIN_SCHEMES)
    def test_fault_free_goldens(self, problem, name):
        q, k, v, cfg = problem
        out, report = build_scheme(name, cfg)(q, k, v)
        mean, abs_sum = ATTENTION_GOLDENS[name]
        assert float(out.mean()) == pytest.approx(mean, rel=1e-6, abs=1e-7)
        assert float(np.abs(out).sum()) == pytest.approx(abs_sum, rel=1e-6)
        assert report.clean

    @pytest.mark.parametrize("name", BUILTIN_SCHEMES)
    def test_schemes_agree_on_fault_free_inputs(self, problem, name):
        q, k, v, cfg = problem
        out, _ = build_scheme(name, cfg)(q, k, v)
        reference, _ = build_scheme("none", cfg)(q, k, v)
        np.testing.assert_allclose(out, reference, rtol=2e-2, atol=2e-2)
