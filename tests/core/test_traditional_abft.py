"""Tests for the traditional (operation-level) ABFT protected GEMM."""

import numpy as np
import pytest

from repro.core.traditional_abft import protected_matmul
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite


class TestProtectedMatmul:
    def test_clean_result_matches_plain_gemm(self, rng):
        a = rng.standard_normal((24, 16)).astype(np.float32)
        b = rng.standard_normal((16, 20)).astype(np.float32)
        out, verdict = protected_matmul(a, b, mixed_precision=False)
        np.testing.assert_allclose(out, a @ b, rtol=1e-5, atol=1e-5)
        assert verdict.clean

    def test_scale_applied(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        out, _ = protected_matmul(a, b, scale=0.25, mixed_precision=False)
        np.testing.assert_allclose(out, 0.25 * (a @ b), rtol=1e-5, atol=1e-5)

    def test_mixed_precision_clean_run_no_false_alarm(self, rng):
        a = rng.standard_normal((32, 64)).astype(np.float32)
        b = rng.standard_normal((64, 32)).astype(np.float32)
        _, verdict = protected_matmul(a, b, mixed_precision=True)
        assert verdict.clean

    def test_injected_fault_detected_and_corrected(self, rng):
        a = rng.standard_normal((32, 32)).astype(np.float32)
        b = rng.standard_normal((32, 32)).astype(np.float32)
        reference, _ = protected_matmul(a, b)
        injector = FaultInjector.single_bit_flip(
            FaultSite.GEMM_QK, seed=0, bit=13, dtype="fp16"
        )
        out, verdict = protected_matmul(a, b, injector=injector)
        assert injector.applied_count == 1
        assert verdict.detected >= 1
        assert verdict.corrected >= 1
        np.testing.assert_allclose(out, reference, rtol=0.05, atol=0.05)

    def test_fault_at_other_site_not_triggered(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_PV, seed=0)
        _, verdict = protected_matmul(a, b, injector=injector, site=FaultSite.GEMM_QK)
        assert injector.applied_count == 0
        assert verdict.clean

    def test_sign_flip_correction(self, rng):
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        reference, _ = protected_matmul(a, b)
        injector = FaultInjector.single_bit_flip(
            FaultSite.GEMM_QK, index=(3, 7), bit=15, dtype="fp16"
        )
        out, verdict = protected_matmul(a, b, injector=injector)
        assert verdict.corrected >= 1
        np.testing.assert_allclose(out[3, 7], reference[3, 7], rtol=0.05, atol=0.05)

    def test_non_2d_rejected(self, rng):
        with pytest.raises(ValueError):
            protected_matmul(rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2)))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            protected_matmul(rng.standard_normal((3, 4)), rng.standard_normal((5, 2)))


class TestDMRSoftmax:
    def test_clean_softmax_accepted(self, rng):
        from repro.core.dmr import dmr_row_softmax

        scores = rng.standard_normal((16, 16)).astype(np.float32)
        probs, stats = dmr_row_softmax(scores)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-4)
        assert stats["detected"] == 0
        assert stats["rounds"] == 0

    def test_injected_fault_detected_and_recomputed(self, rng):
        from repro.core.dmr import dmr_row_softmax
        from repro.attention.softmax import stable_softmax

        scores = rng.standard_normal((16, 16)).astype(np.float32)
        injector = FaultInjector.single_bit_flip(FaultSite.SOFTMAX, seed=1, bit=13, dtype="fp16")
        probs, stats = dmr_row_softmax(scores, injector=injector)
        assert stats["detected"] == 1
        assert stats["rounds"] >= 1
        np.testing.assert_allclose(probs, stable_softmax(scores), rtol=1e-4, atol=1e-5)

    def test_rowsum_violation_triggers_recompute(self, rng):
        from repro.core.dmr import dmr_row_softmax

        scores = rng.standard_normal((8, 8)).astype(np.float32)
        # Inject a large positive corruption: both replicas agree (the fault
        # hit before duplication is not modelled here), but the row-sum check
        # of Equation (11) still catches a corrupted normalisation.
        injector = FaultInjector.single_bit_flip(
            FaultSite.SOFTMAX, index=(2, 3), bit=14, dtype="fp16"
        )
        probs, stats = dmr_row_softmax(scores, injector=injector)
        assert stats["detected"] == 1
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-3)

    def test_stacked_agreement_matches_the_tolerance_test(self, rng):
        # Trials whose duplicate is bitwise equal skip the tolerance test;
        # the others must get exactly the verdict it gives.  Trial 1 drifts
        # within the tolerance (agrees), trial 2 beyond it, trial 3 holds a
        # NaN and trial 4 a signed zero where the duplicate has +0.0.
        from repro.attention.softmax import stable_softmax
        from repro.core.dmr import dmr_row_softmax_stacked

        scores = rng.standard_normal((5, 6, 8)).astype(np.float32)
        scores[4, 0, 0] = -np.inf  # its probability is exactly +0.0

        class Corrupt:
            def corrupt(self, site, probs, block=None):
                probs[1, 2, 3] *= np.float32(1.0 + 1e-5)
                probs[2, 2, 3] *= np.float32(1.5)
                probs[3, 0, 0] = np.nan
                probs[4, 0, 0] = -0.0

        _, stats = dmr_row_softmax_stacked(scores, Corrupt())
        detected = [s["detected"] for s in stats]
        assert detected == [0, 0, 1, 1, 0]
        assert stable_softmax(scores[4])[0, 0] == 0.0

    @pytest.mark.parametrize("tolerance", [-1e-3, float("nan")])
    def test_tolerance_must_be_non_negative(self, rng, tolerance):
        from repro.core.dmr import dmr_row_softmax

        with pytest.raises(ValueError, match="tolerance"):
            dmr_row_softmax(rng.standard_normal((4, 4)), tolerance=tolerance)
