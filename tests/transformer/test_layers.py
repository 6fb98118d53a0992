"""Tests for protected Transformer layers."""

import numpy as np
import pytest

from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite
from repro.transformer.layers import Embedding, LayerNorm, ProtectedLinear, gelu, relu


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_gelu_limits(self):
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)

    def test_gelu_at_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_gelu_monotone_on_positives(self, rng):
        x = np.sort(rng.random(16).astype(np.float32))
        y = gelu(x)
        assert np.all(np.diff(y) >= 0)


class TestNumericsMode:
    """The GELU evaluation is pinned bit-for-bit."""

    def test_default_matches_pinned_expression(self, rng):
        x = rng.standard_normal(257).astype(np.float32) * 5.0
        # The historical default evaluation, spelled out verbatim: the tanh
        # chain promotes to float64 via the strong np.sqrt scalar.  The
        # campaign byte-parity surface depends on these exact bits.
        expected = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
        got = gelu(x)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


class TestLayerNorm:
    def test_output_statistics(self, rng):
        ln = LayerNorm(32)
        x = rng.standard_normal((4, 10, 32)).astype(np.float32) * 3 + 2
        y = ln(x)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-2)

    def test_gamma_beta_applied(self, rng):
        ln = LayerNorm(8)
        ln.gamma[:] = 2.0
        ln.beta[:] = 1.0
        x = rng.standard_normal((3, 8)).astype(np.float32)
        y = ln(x)
        np.testing.assert_allclose(y.mean(axis=-1), 1.0, atol=1e-4)


class TestEmbedding:
    def test_shape(self, rng):
        emb = Embedding(vocab_size=100, dim=16, max_seq_len=32, rng=rng)
        out = emb(np.zeros((2, 10), dtype=int))
        assert out.shape == (2, 10, 16)

    def test_position_added(self, rng):
        emb = Embedding(vocab_size=10, dim=4, max_seq_len=8, rng=rng)
        ids = np.zeros((1, 3), dtype=int)
        out = emb(ids)
        # Same token at different positions differs by the positional term.
        assert not np.allclose(out[0, 0], out[0, 1])

    def test_out_of_vocab_rejected(self, rng):
        emb = Embedding(vocab_size=10, dim=4, max_seq_len=8, rng=rng)
        with pytest.raises(ValueError):
            emb(np.array([[11]]))

    def test_too_long_sequence_rejected(self, rng):
        emb = Embedding(vocab_size=10, dim=4, max_seq_len=4, rng=rng)
        with pytest.raises(ValueError):
            emb(np.zeros((1, 5), dtype=int))

    def test_wrong_rank_rejected(self, rng):
        emb = Embedding(vocab_size=10, dim=4, max_seq_len=8, rng=rng)
        with pytest.raises(ValueError):
            emb(np.zeros(3, dtype=int))


class TestProtectedLinear:
    def test_matches_plain_matmul(self, rng):
        layer = ProtectedLinear(16, 24, rng)
        x = rng.standard_normal((4, 16)).astype(np.float32)
        expected = x @ layer.weight + layer.bias
        np.testing.assert_allclose(layer(x), expected, rtol=5e-3, atol=5e-3)

    def test_leading_dimensions_preserved(self, rng):
        layer = ProtectedLinear(8, 8, rng)
        x = rng.standard_normal((2, 5, 8)).astype(np.float32)
        assert layer(x).shape == (2, 5, 8)

    def test_no_bias(self, rng):
        layer = ProtectedLinear(8, 8, rng, bias=False)
        assert layer.bias is None
        assert np.all(np.isfinite(layer(np.zeros((1, 8), dtype=np.float32))))

    def test_clean_run_verdict_clean(self, rng):
        layer = ProtectedLinear(32, 64, rng)
        x = rng.standard_normal((8, 32)).astype(np.float32)
        layer(x)
        assert layer.last_verdict is not None
        assert layer.last_verdict.clean

    def test_unprotected_mode_records_nothing(self, rng):
        layer = ProtectedLinear(8, 8, rng)
        layer(np.ones((2, 8), dtype=np.float32), protected=False)
        assert layer.last_verdict is None

    def test_fault_detected_and_corrected(self, rng):
        layer = ProtectedLinear(32, 64, rng)
        x = rng.standard_normal((8, 32)).astype(np.float32)
        clean = layer(x)
        injector = FaultInjector.single_bit_flip(FaultSite.LINEAR, seed=0, bit=13, dtype="fp16")
        faulty = layer(x, injector=injector)
        assert layer.last_verdict.detected >= 1
        assert layer.last_verdict.corrected >= 1
        np.testing.assert_allclose(faulty, clean, rtol=2e-2, atol=2e-2)

    def test_weight_checksums_precomputed_once(self, rng):
        layer = ProtectedLinear(16, 16, rng)
        c1_before = layer._w_check1.copy()
        layer(rng.standard_normal((2, 16)).astype(np.float32))
        np.testing.assert_array_equal(layer._w_check1, c1_before)
