"""The batched transformer kernel's reuse of the fault-free run's GELU values.

``repro.fault.batched`` evaluates a block's GELU only on the elements whose
float32 bit pattern differs from the fault-free run's input there and copies
the fault-free output everywhere else.  That is exact because GELU is
elementwise: evaluating any gathered subset gives the values a whole-array
evaluation gives.  These tests pin that premise, the bit-pattern rule, that
a trial evaluates nothing its fault never reached, and that the fault-free
(golden) trace lives and dies with its transformer fixture.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fault.batched as batched
import repro.fault.campaign as campaign_module
from repro.exec.engine import ExperimentRunner
from repro.exec.spec import ExperimentSpec
from repro.fault.batched import _reusing, _transformer_inference_batch
from repro.fault.campaign import _transformer_fixture
from repro.fault.dictionary import FaultloadGenerator
from repro.fault.models import FaultSite
from repro.fault.runner import TRIAL_BATCH_ENV
from repro.transformer.layers import gelu

#: NaN, inf and overflowing inputs warn in GELU's float arithmetic by design.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Float32 bit patterns the strategy mixes into arbitrary ones: signed zeros,
#: infinities, quiet and signalling NaNs with payloads, subnormals.
SPECIAL_BITS = (
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001,
    0x7FA00000, 0xFF800001, 0x00000001, 0x807FFFFF, 0x00400000,
)
float32_bits = st.one_of(
    st.sampled_from(SPECIAL_BITS),
    st.integers(0, 2**32 - 1),
    st.floats(-12.0, 12.0, width=32).map(lambda f: int(np.float32(f).view(np.uint32))),
)


def _bits(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint32).view(np.float32)


def _assert_same_gelu(part: np.ndarray, whole: np.ndarray) -> None:
    """Bitwise equal, except that two NaNs may carry different payloads.

    A NaN input gives a NaN output whatever the layout, but the payload of
    that NaN is not a property of the element: GELU's last multiply has two
    NaN operands and NumPy's loops pick either one (a single-element call
    and a long array differ here).  Nothing downstream reads a payload.
    """
    assert part.dtype == whole.dtype == np.float64
    nan = np.isnan(whole)
    assert np.array_equal(np.isnan(part), nan)
    assert np.array_equal(part[~nan].view(np.uint64), whole[~nan].view(np.uint64))


class TestGeluIsElementwise:
    """The premise of the reuse: a subset evaluates to the whole array's values."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(float32_bits, min_size=1, max_size=80), data=st.data())
    def test_subset_strided_view_and_permutation(self, values, data):
        x = _bits(values)
        whole = gelu(x)
        n = len(values)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        _assert_same_gelu(gelu(x[mask]), whole[mask])
        start = data.draw(st.integers(0, n - 1))
        step = data.draw(st.integers(1, 5))
        _assert_same_gelu(gelu(x[start::step]), whole[start::step])
        order = np.array(data.draw(st.permutations(range(n))))
        _assert_same_gelu(gelu(x[order]), whole[order])

    def test_gathers_from_a_long_array(self):
        # The batched kernel compares against stacks of a few hundred
        # thousand elements; gathers of every size must match there too.
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.integers(0, 2**32, size=40_000, dtype=np.uint64).astype(np.uint32).view(np.float32),
            (4.0 * rng.standard_normal(40_000)).astype(np.float32),
        ])
        whole = gelu(x.reshape(80, 1000))
        for share in (1e-4, 0.01, 0.3, 0.9):
            mask = rng.random(x.shape) < share
            _assert_same_gelu(gelu(x[mask]), whole.reshape(-1)[mask])
        _assert_same_gelu(gelu(x.reshape(80, 1000)[:, ::3]), whole[:, ::3])

    def test_reversed_views(self):
        # NumPy's float32 ``x**3`` takes another loop on a negative-stride
        # view and rounds some elements differently there (64 of these 200K
        # finite outputs moved before gelu evaluated a contiguous copy).
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2**32, size=200_000, dtype=np.uint64).astype(np.uint32).view(np.float32)
        whole = gelu(x)
        _assert_same_gelu(gelu(x[::-1])[::-1], whole)
        grid = x.reshape(400, 500)
        _assert_same_gelu(gelu(grid[::-1, ::-3])[::-1, ::-1], whole.reshape(400, 500)[:, ::-3][:, ::-1])


class TestReuseRule:
    def test_bit_patterns_decide_not_values(self):
        # A signed zero and a NaN with another payload are recomputed although
        # `-0.0 == 0.0` holds; an identical NaN pattern is copied like any
        # other unchanged element.
        nan_a, nan_b = 0x7FC00001, 0x7FC00002
        golden_in = _bits([0x00000000, nan_a, 0x3FC00000, 0xC0000000])[None]
        golden_out = gelu(golden_in)
        hidden = np.stack([
            _bits([0x80000000, nan_b, 0x3FC00000, 0xC0000000]),
            _bits([0x00000000, nan_a, 0x3FC00000, 0x40400000]),
        ])
        evaluated = []

        def counting(x):
            evaluated.append(x.copy())
            return gelu(x)

        out = _reusing(counting, golden_in, golden_out)(hidden)
        assert [sorted(x.view(np.uint32).tolist()) for x in evaluated] == [
            sorted([0x80000000, nan_b, 0x40400000])
        ]
        assert out.dtype == np.float64
        assert out[0, 0] == 0.0 and np.signbit(out[0, 0])
        assert np.isnan(out[0, 1])
        assert out[1, 1].view(np.uint64) == golden_out[0, 1].view(np.uint64)
        _assert_same_gelu(out, gelu(hidden))

    def test_unchanged_stack_evaluates_nothing(self):
        golden_in = np.linspace(-4, 4, 24, dtype=np.float32).reshape(1, 4, 6)
        golden_out = gelu(golden_in)
        hidden = np.repeat(golden_in, 3, axis=0)

        def never(x):  # pragma: no cover - must not run
            raise AssertionError("evaluated an unchanged element")

        out = _reusing(never, golden_in, golden_out)(hidden)
        assert np.array_equal(out.view(np.uint64), gelu(hidden).view(np.uint64))


# --------------------------------------------------------------------------- #
# The batch kernel
# --------------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def _fresh_fixtures(monkeypatch):
    monkeypatch.setattr(campaign_module, "_TRANSFORMER_FIXTURES", {})


def _run_bytes(monkeypatch, tmp_path, batch: int, n_trials: int, params: dict) -> bytes:
    monkeypatch.setenv(TRIAL_BATCH_ENV, str(batch))
    out = tmp_path / f"b{batch}.jsonl"
    spec = ExperimentSpec(
        campaign="transformer_inference", n_trials=n_trials, params=params, seed=5
    )
    ExperimentRunner(spec, executor="serial", results_path=out).run()
    return out.read_bytes()


class TestGoldenTrace:
    @pytest.mark.parametrize("scheme", ["none", "efta_unified"])
    def test_faults_at_the_lm_head_evaluate_no_gelu_beyond_the_golden_pass(
        self, scheme, tmp_path, monkeypatch
    ):
        # Every fault fires in the last linear layer, after both FFNs: each
        # trial's GELU inputs equal the fault-free ones bit for bit.
        seq_len = 8
        params = {"scheme": scheme, "hidden_dim": 16, "seq_len": seq_len}
        fixture = _transformer_fixture(params)
        lm_head = fixture.site_counts[FaultSite.LINEAR] - 1
        faultload = tmp_path / "lm_head.jsonl"
        FaultloadGenerator(
            model="seu", n_trials=6, seed=3, site="linear", occurrence=lm_head
        ).generate().write(faultload)
        params = {**params, "faultload": str(faultload)}

        evaluated = []
        for block in fixture.model.blocks:
            def counting(x, _gelu=block.ffn.activation):
                evaluated.append(np.size(x))
                return _gelu(x)

            monkeypatch.setattr(block.ffn, "activation", counting)
        golden_pass = sum(seq_len * block.ffn.fc_in.out_dim for block in fixture.model.blocks)

        batched_bytes = _run_bytes(monkeypatch, tmp_path, 6, 6, params)
        assert sum(evaluated) == golden_pass
        records = [json.loads(line) for line in batched_bytes.splitlines()[1:]]
        assert [r["record"]["injected"] for r in records] == [1] * 6
        assert batched_bytes == _run_bytes(monkeypatch, tmp_path, 1, 6, params)

    def test_evicted_fixture_rebuilds_its_trace(self, monkeypatch):
        monkeypatch.setattr(campaign_module, "_TRANSFORMER_FIXTURE_LIMIT", 1)
        recorded = []  # (model, trace) of every golden pass
        used = []  # golden inputs handed to the reuse

        def golden_trace(model, *args, _real=batched._golden_trace):
            trace = _real(model, *args)
            recorded.append((model, trace))
            return trace

        def reusing(activation, golden_in, golden_out, _real=batched._reusing):
            used.append(golden_in)
            return _real(activation, golden_in, golden_out)

        monkeypatch.setattr(batched, "_golden_trace", golden_trace)
        monkeypatch.setattr(batched, "_reusing", reusing)

        def run(params):
            used.clear()
            rngs = [np.random.default_rng(i) for i in range(3)]
            assert len(_transformer_inference_batch(rngs, dict(params))) == 3
            fixture = _transformer_fixture(params)
            trace = fixture.gelu_traces[True]
            # Only the trace of this fixture's own model was reused.
            assert [model for model, t in recorded if t is trace] == [fixture.model]
            assert [id(g) for g in used] == [id(golden_in) for golden_in, _ in trace]
            return fixture

        a = {"scheme": "none", "hidden_dim": 16, "num_layers": 2, "seq_len": 8}
        b = {**a, "model_seed": 1}
        first = run(a)
        assert run(a) is first and len(recorded) == 1  # one pass per fixture
        ffn_dim = first.model.blocks[0].ffn.fc_in.out_dim
        assert first.gelu_traces[True][0][0].shape == (1, 8, ffn_dim)  # a trial axis of one
        other = run(b)  # evicts a
        rebuilt = run(a)  # rebuilds a, and with it the trace
        assert rebuilt is not first and rebuilt.model is not first.model
        assert [model for model, _ in recorded] == [first.model, other.model, rebuilt.model]

    def test_relu_models_record_no_trace(self, monkeypatch):
        params = {"model": "T5-Small", "scheme": "none", "hidden_dim": 16, "seq_len": 8}
        rngs = [np.random.default_rng(i) for i in range(2)]
        assert len(_transformer_inference_batch(rngs, params)) == 2
        assert _transformer_fixture(params).gelu_traces == {}
