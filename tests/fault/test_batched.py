"""Byte-parity and contract tests for the batched trial kernels.

The batched execution path (``REPRO_TRIAL_BATCH > 1``) must produce JSONL
checkpoints byte-identical to the per-trial path for every campaign that
registers a batch kernel, on every backend, at every batch size -- the
batching is purely an execution-speed optimisation, never a numerics
trade-off.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exec.engine import ExperimentRunner
from repro.exec.spec import ExperimentSpec
from repro.fault.runner import (
    DEFAULT_TRIAL_BATCH,
    TRIAL_BATCH_ENV,
    available_campaigns,
    get_campaign,
    register_campaign,
    register_campaign_batch,
    trial_batch_size,
)


@pytest.fixture(autouse=True)
def _registry_snapshot():
    """Undo test-local register_campaign calls so reruns in one process pass."""
    from repro.fault import runner as runner_module

    runner_module.available_campaigns()
    saved = dict(runner_module._REGISTRY)
    yield
    runner_module._REGISTRY.clear()
    runner_module._REGISTRY.update(saved)


#: Small pinned workloads per campaign with a batch kernel: (n_trials, params).
CASES = {
    "abft_error_coverage": (8, {"bit_error_rate": 1e-6, "rows": 48, "cols": 48, "depth": 24}),
    "transformer_inference": (8, {"scheme": "none", "hidden_dim": 16, "seq_len": 8}),
}

#: The coverage kernel on a ragged shape: 37 columns leave stride classes of
#: five and four columns.  At this rate the 64 trials at seed 11 flip values to
#: NaN or inf and leave located errors uncorrectable, in both schemes.
COVERAGE_RAGGED = (64, {"rows": 30, "cols": 37, "depth": 12, "bit_error_rate": 1e-5})

#: A larger transformer workload: the wide ``lm_head`` projection only drifts
#: for rare value patterns, so a handful of trials can miss a real parity bug
#: (a fused 2D GEMM over stacked trials diverged on ~2 of 64 trials).
TRANSFORMER_DEEP = (64, {"scheme": "none"})


def _run_bytes(monkeypatch, tmp_path, campaign, batch, n_trials, params, *, seed=11,
               executor="serial", n_workers=1):
    monkeypatch.setenv(TRIAL_BATCH_ENV, str(batch))
    out = tmp_path / f"{campaign.replace('/', '_')}-b{batch}-{executor}.jsonl"
    spec = ExperimentSpec(campaign=campaign, n_trials=n_trials, params=params, seed=seed)
    ExperimentRunner(spec, executor=executor, n_workers=n_workers, results_path=out).run()
    return out.read_bytes()


class TestByteParityAllCampaigns:
    def test_every_registered_campaign_has_a_case(self):
        # A built-in campaign that registers a batch kernel must be added to
        # CASES so it gets parity coverage.  Test-local campaigns (other
        # modules register throwaway kernels) are exempt: only kernels
        # defined inside repro count.
        builtin = sorted(
            name
            for name in available_campaigns()
            if get_campaign(name).trial.__module__.startswith("repro.")
            and get_campaign(name).batch is not None
        )
        assert sorted(CASES) == builtin

    @pytest.mark.parametrize("campaign", sorted(CASES))
    @pytest.mark.parametrize("batch", [3, 7, 16])
    def test_batched_matches_scalar(self, campaign, batch, tmp_path, monkeypatch):
        n_trials, params = CASES[campaign]
        scalar = _run_bytes(monkeypatch, tmp_path, campaign, 1, n_trials, params)
        batched = _run_bytes(monkeypatch, tmp_path, campaign, batch, n_trials, params)
        assert batched == scalar

    def test_transformer_many_trials_nondivisor_batch(self, tmp_path, monkeypatch):
        n_trials, params = TRANSFORMER_DEEP
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, n_trials, params)
        for batch in (3, 16):
            batched = _run_bytes(
                monkeypatch, tmp_path, "transformer_inference", batch, n_trials, params
            )
            assert batched == scalar

    def test_transformer_ber_mode_parity(self, tmp_path, monkeypatch):
        params = {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "bit_error_rate": 1e-7}
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 32, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 16, 32, params)
        assert batched == scalar

    @pytest.mark.parametrize(
        "params",
        [
            # Protected default scheme (efta_unified) on the default linear site.
            {"hidden_dim": 16, "seq_len": 8},
            # Attention fault sites ride each scheme's stacked tile recurrence.
            {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": "gemm_qk"},
            {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": ["linear", "gemm_qk"]},
            {"scheme": "efta", "hidden_dim": 16, "seq_len": 8, "site": "subtract_exp"},
            {"scheme": "efta", "hidden_dim": 16, "seq_len": 8, "site": "reduce_sum"},
            {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8, "site": "gemm_pv"},
            {
                "scheme": "efta_unified",
                "hidden_dim": 16,
                "seq_len": 8,
                "site": ["linear", "gemm_qk", "subtract_exp", "gemm_pv", "normalize"],
            },
            {"scheme": "decoupled", "hidden_dim": 16, "seq_len": 8, "site": "softmax"},
            {
                "scheme": "decoupled",
                "hidden_dim": 16,
                "seq_len": 8,
                "site": ["linear", "gemm_qk", "softmax", "gemm_pv"],
            },
        ],
    )
    def test_transformer_scheme_paths_stay_byte_identical(self, params, tmp_path, monkeypatch):
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 5, 6, params)
        assert batched == scalar

    def test_transformer_protected_many_trials_nondivisor_batch(self, tmp_path, monkeypatch):
        # The protected analogue of the deep scheme-"none" sweep: enough
        # trials to surface rare value patterns in the stacked verification.
        params = {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8}
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 64, params)
        for batch in (3, 16):
            batched = _run_bytes(
                monkeypatch, tmp_path, "transformer_inference", batch, 64, params
            )
            assert batched == scalar

    def test_transformer_protected_ber_mode_parity(self, tmp_path, monkeypatch):
        params = {
            "scheme": "efta_unified",
            "hidden_dim": 16,
            "seq_len": 8,
            "bit_error_rate": 1e-7,
            "site": ["linear", "gemm_pv"],
        }
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 32, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 16, 32, params)
        assert batched == scalar

    def test_transformer_site_list_fast_path(self, tmp_path, monkeypatch):
        params = {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": ["linear"]}
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 8, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 8, 8, params)
        assert batched == scalar

    @pytest.mark.parametrize("executor", ["process"])
    @pytest.mark.parametrize(
        "params",
        [
            CASES["transformer_inference"][1],
            {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8, "site": "gemm_pv"},
        ],
        ids=["none", "efta_unified"],
    )
    def test_executor_backends_match_serial_scalar(self, executor, params, tmp_path, monkeypatch):
        n_trials = CASES["transformer_inference"][0]
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, n_trials, params)
        batched = _run_bytes(
            monkeypatch, tmp_path, "transformer_inference", 3, n_trials, params,
            executor=executor, n_workers=2,
        )
        assert batched == scalar


class TestCoverageKernelParity:
    """The coverage batch kernel verifies and corrects its whole trial stack at once."""

    @staticmethod
    def _probe(monkeypatch) -> dict:
        """Count non-finite flips and the stacked verifiers' uncorrectable locates."""
        import repro.fault.campaign as campaign_module

        seen = {"nonfinite_flips": 0, "uncorrectable": 0}
        flip_bit = campaign_module.flip_bit

        def counting_flip(*args):
            value = flip_bit(*args)
            seen["nonfinite_flips"] += not np.isfinite(value)
            return value

        monkeypatch.setattr(campaign_module, "flip_bit", counting_flip)
        for name in ("verify_strided_checksums_stacked", "verify_column_checksums_stacked"):
            verify = getattr(campaign_module, name)

            def counting_verify(*args, _verify=verify, **kwargs):
                verdicts = _verify(*args, **kwargs)
                seen["uncorrectable"] += sum(v.uncorrectable for v in verdicts)
                return verdicts

            monkeypatch.setattr(campaign_module, name, counting_verify)
        return seen

    @pytest.mark.parametrize("scheme", ["tensor", "element"])
    def test_ragged_shape_matches_scalar_at_every_batch(self, scheme, tmp_path, monkeypatch):
        n_trials, params = COVERAGE_RAGGED
        params = {**params, "scheme": scheme}
        seen = self._probe(monkeypatch)
        scalar = _run_bytes(monkeypatch, tmp_path, "abft_error_coverage", 1, n_trials, params)
        assert seen["uncorrectable"] == 0  # the scalar run never reaches the stacked verifiers
        for batch in (3, 7, 16):
            batched = _run_bytes(
                monkeypatch, tmp_path, "abft_error_coverage", batch, n_trials, params
            )
            assert batched == scalar, batch
        assert seen["nonfinite_flips"] > 0
        assert seen["uncorrectable"] > 0


class TestFaultModelParity:
    """Byte parity must hold for every fault-dictionary model, not just SEU."""

    @pytest.mark.parametrize(
        "model, model_params",
        [
            ("stuck_at_0", {}),
            ("stuck_at_1", {}),
            ("multi_bit_burst", {"burst_len": 3}),
            ("intermittent", {"p": 0.5}),
            ("row_line", {}),
            ("col_line", {}),
            ("ber", {"bit_error_rate": 1e-4}),
        ],
    )
    def test_transformer_fault_models(self, model, model_params, tmp_path, monkeypatch):
        params = {
            "scheme": "efta_unified",
            "hidden_dim": 16,
            "seq_len": 8,
            "fault_model": model,
            "model_params": model_params,
        }
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 5, 6, params)
        assert batched == scalar

    def test_transformer_at_rest_model(self, tmp_path, monkeypatch):
        # The batched kernel declines at-rest models; the scalar fallback must
        # still land byte-identically whatever the configured batch size.
        params = {
            "scheme": "efta",
            "hidden_dim": 16,
            "seq_len": 8,
            "fault_model": "weights_at_rest",
        }
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 5, 6, params)
        assert batched == scalar

    @pytest.mark.parametrize(
        "campaign, params",
        [
            ("transformer_inference", {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8}),
        ],
    )
    def test_faultload_replay_parity(self, campaign, params, tmp_path, monkeypatch):
        from repro.fault.dictionary import FaultloadGenerator

        fl = tmp_path / "fl.jsonl"
        FaultloadGenerator(
            model="stuck_at_0", n_trials=6, seed=11, site="linear"
        ).generate().write(fl)
        params = {**params, "faultload": str(fl)}
        scalar = _run_bytes(monkeypatch, tmp_path, campaign, 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, campaign, 4, 6, params)
        assert batched == scalar


class TestRoundOnce:
    """Each linear operand of the batched forward is rounded to FP16 once."""

    PARAMS = {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8}

    @pytest.fixture(autouse=True)
    def _fresh_fixtures(self, monkeypatch):
        from repro.fault import campaign as campaign_module

        monkeypatch.setattr(campaign_module, "_TRANSFORMER_FIXTURES", {})

    @staticmethod
    def _linear_layers(model) -> list:
        layers = [model.lm_head]
        for block in model.blocks:
            mha = block.attention
            layers += [mha.q_proj, mha.k_proj, mha.v_proj, mha.out_proj]
            layers += [block.ffn.fc_in, block.ffn.fc_out]
        return layers

    @staticmethod
    def _run(params, n_trials=3):
        from repro.fault.batched import _transformer_inference_batch

        rngs = [np.random.default_rng(i) for i in range(n_trials)]
        return _transformer_inference_batch(rngs, dict(params))

    def test_weights_are_rounded_once_per_model_and_kept_in_the_fixture(self, monkeypatch):
        from repro.fault.campaign import _transformer_fixture
        from repro.fp import float16

        fixture = _transformer_fixture(self.PARAMS)
        layers = self._linear_layers(fixture.model)
        rounded = []
        real = float16.fp16_quantize
        monkeypatch.setattr(
            float16, "fp16_quantize", lambda x: rounded.append(x) or real(x)
        )
        self._run(self.PARAMS)
        self._run(self.PARAMS)
        for layer in layers:
            sources = (layer.weight, layer._w_check1, layer._w_check2)
            assert [sum(x is w for x in rounded) for w in sources] == [1, 1, 1]
            operands = fixture.fp16_weights[layer]
            for source, operand in zip(sources, operands):
                assert np.array_equal(
                    operand.values.view(np.uint32), real(source).view(np.uint32)
                )
        assert set(fixture.fp16_weights) == set(layers)

    def test_q_k_and_v_share_one_rounded_input(self, monkeypatch):
        from repro.fault import batched
        from repro.fault.campaign import _transformer_fixture
        from repro.fp.float16 import FP16Operand

        inputs = {}
        real = batched._linear_batched

        def recording(layer, x, *args):
            inputs.setdefault(id(layer), []).append(x)
            return real(layer, x, *args)

        monkeypatch.setattr(batched, "_linear_batched", recording)
        fixture = _transformer_fixture(self.PARAMS)
        self._run(self.PARAMS)
        for block in fixture.model.blocks:
            mha = block.attention
            q_in, k_in, v_in = (inputs[id(p)][-1] for p in (mha.q_proj, mha.k_proj, mha.v_proj))
            assert isinstance(q_in, FP16Operand)
            assert q_in is k_in is v_in

    def test_rounded_weights_survive_at_rest_trials(self, tmp_path, monkeypatch):
        # At-rest trials flip the shared model's weights and restore them
        # bit for bit; the batched trials after them must still match the
        # scalar kernel.
        from repro.fault.campaign import _transformer_fixture

        def run(name, batch, params):
            (tmp_path / name).mkdir()
            return _run_bytes(monkeypatch, tmp_path / name, "transformer_inference", batch, 6, params)

        scalar = run("scalar", 1, self.PARAMS)
        self._run(self.PARAMS)  # fills the fixture's rounded weights
        run("at_rest", 4, {**self.PARAMS, "fault_model": "weights_at_rest"})
        assert _transformer_fixture(self.PARAMS).fp16_weights
        assert run("batched", 4, self.PARAMS) == scalar

    def test_an_evicted_fixture_rounds_its_new_model(self, monkeypatch):
        from repro.fault import campaign as campaign_module
        from repro.fault.campaign import _transformer_fixture

        monkeypatch.setattr(campaign_module, "_TRANSFORMER_FIXTURE_LIMIT", 1)
        self._run(self.PARAMS)
        first = _transformer_fixture(self.PARAMS)
        self._run({**self.PARAMS, "model_seed": 1})  # evicts the first fixture
        self._run(self.PARAMS)
        rebuilt = _transformer_fixture(self.PARAMS)
        assert rebuilt is not first
        assert set(rebuilt.fp16_weights) == set(self._linear_layers(rebuilt.model))
        assert not set(rebuilt.fp16_weights) & set(first.fp16_weights)


class TestBatchedKernelContracts:
    def test_scheme_without_batched_forward_declines_before_consuming_rngs(self):
        # A scheme whose attention kernel has no stacked forward must decline
        # the chunk -- leaving every per-trial generator untouched for the
        # scalar fallback -- rather than crash or consume draws.
        from repro.core import schemes as schemes_module
        from repro.fault.batched import _transformer_inference_batch

        @schemes_module.register_scheme("parity_scalar_only")
        class _ScalarOnly(schemes_module.UnprotectedAttention):
            supports_batched = False

        try:
            rngs = [np.random.default_rng(i) for i in range(3)]
            states = [rng.bit_generator.state for rng in rngs]
            params = {"scheme": "parity_scalar_only", "hidden_dim": 16, "seq_len": 8}
            assert _transformer_inference_batch(rngs, params) is None
            assert [rng.bit_generator.state for rng in rngs] == states
        finally:
            schemes_module._SCHEMES.pop("parity_scalar_only", None)

    def test_batched_module_imports_on_its_own(self):
        # A fresh interpreter that imports the batched module before anything
        # else must not fail, and the registry must still attach its kernel
        # once the campaigns load.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        code = (
            "import repro.fault.batched as batched\n"
            "from repro.fault.runner import get_campaign\n"
            "assert get_campaign('transformer_inference').batch "
            "is batched._transformer_inference_batch\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_transformer_batch_rejects_unavailable_site_like_scalar(self):
        from repro.fault.batched import _transformer_inference_batch

        params = {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": "softmax"}
        with pytest.raises(ValueError, match="never execute"):
            get_campaign("transformer_inference").trial(np.random.default_rng(0), dict(params))
        with pytest.raises(ValueError, match="never execute"):
            _transformer_inference_batch([np.random.default_rng(0)], dict(params))

    def test_run_batch_length_mismatch_raises(self):
        @register_campaign("parity_len_mismatch")
        def _trial(rng, params):
            return {"x": float(rng.standard_normal())}

        @register_campaign_batch("parity_len_mismatch")
        def _batch(rngs, params):
            return [{"x": 0.0}]  # always one record, regardless of len(rngs)

        definition = get_campaign("parity_len_mismatch")
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(RuntimeError, match="3 trials"):
            definition.run_batch(rngs, "{}")

    def test_run_batch_none_falls_back_to_scalar_loop(self):
        calls = {"batch": 0}

        @register_campaign("parity_decline")
        def _trial(rng, params):
            return {"x": float(rng.standard_normal())}

        @register_campaign_batch("parity_decline")
        def _batch(rngs, params):
            calls["batch"] += 1
            return None

        definition = get_campaign("parity_decline")
        rngs = [np.random.default_rng(i) for i in range(3)]
        expected = [{"x": float(np.random.default_rng(i).standard_normal())} for i in range(3)]
        assert definition.run_batch(rngs, "{}") == expected
        assert calls["batch"] == 1

    def test_single_trial_skips_batch_kernel(self):
        @register_campaign("parity_single")
        def _trial(rng, params):
            return {"x": float(rng.standard_normal())}

        @register_campaign_batch("parity_single")
        def _batch(rngs, params):  # pragma: no cover - must never run
            raise AssertionError("batch kernel must not be called for one trial")

        definition = get_campaign("parity_single")
        assert definition.run_batch([np.random.default_rng(0)], "{}") == [
            {"x": float(np.random.default_rng(0).standard_normal())}
        ]

    def test_register_batch_requires_scalar_kernel(self):
        with pytest.raises(ValueError, match="not registered"):
            register_campaign_batch("no_such_campaign")(lambda rngs, params: None)

    def test_register_batch_rejects_duplicates(self):
        @register_campaign("parity_dupe")
        def _trial(rng, params):
            return {}

        register_campaign_batch("parity_dupe")(lambda rngs, params: None)
        with pytest.raises(ValueError, match="already has a batched kernel"):
            register_campaign_batch("parity_dupe")(lambda rngs, params: None)


class TestTrialBatchSize:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(TRIAL_BATCH_ENV, raising=False)
        assert trial_batch_size() == DEFAULT_TRIAL_BATCH

    def test_empty_means_default(self, monkeypatch):
        monkeypatch.setenv(TRIAL_BATCH_ENV, "")
        assert trial_batch_size() == DEFAULT_TRIAL_BATCH

    def test_explicit_value(self, monkeypatch):
        monkeypatch.setenv(TRIAL_BATCH_ENV, "5")
        assert trial_batch_size() == 5

    @pytest.mark.parametrize("bad", ["zero", "0", "-3", "2.5"])
    def test_invalid_values_raise(self, bad, monkeypatch):
        monkeypatch.setenv(TRIAL_BATCH_ENV, bad)
        with pytest.raises(ValueError, match=TRIAL_BATCH_ENV):
            trial_batch_size()
