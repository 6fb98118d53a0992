"""Cross-scheme / cross-backend faultload replay determinism.

A faultload artifact generated once must inject the *identical* FaultSpec
sequence under every protection scheme, executor backend and worker count --
that is the whole point of pre-materializing it.  The per-record
``fault_digest`` (a stable hash of the trial's replayed spec list) is the
witness: equal digest streams mean equal injected faults.
"""

from __future__ import annotations

import pytest

from repro.exec.engine import ExperimentRunner
from repro.exec.spec import ExperimentSpec
from repro.fault.dictionary import FaultloadGenerator, load_faultload
from repro.fault.runner import get_campaign

SCHEMES = ["none", "efta", "efta_unified", "decoupled"]
N_TRIALS = 4
TRANSFORMER_PARAMS = {"hidden_dim": 16, "seq_len": 8}


@pytest.fixture(scope="module")
def faultload_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("faultload") / "fl.jsonl"
    FaultloadGenerator(model="stuck_at_0", n_trials=N_TRIALS, seed=11).generate().write(path)
    return path


def _run(tmp_path, campaign, params, faultload, tag, executor="serial", n_workers=1):
    out = tmp_path / f"{tag}.jsonl"
    spec = ExperimentSpec(
        campaign=campaign,
        n_trials=N_TRIALS,
        seed=3,
        params=params,
        faultload=str(faultload),
    )
    result = ExperimentRunner(
        spec, executor=executor, n_workers=n_workers, results_path=out
    ).run()
    records = result.points[0].records.records
    digests = [records[t]["fault_digest"] for t in sorted(records)]
    return out.read_bytes(), digests


class TestCrossSchemeReplay:
    def test_same_faults_under_every_scheme_and_backend(self, faultload_path, tmp_path):
        expected = [
            load_faultload(faultload_path).digest_for(t) for t in range(N_TRIALS)
        ]
        by_scheme: dict[str, bytes] = {}
        for scheme in SCHEMES:
            params = {"scheme": scheme, **TRANSFORMER_PARAMS}
            serial_bytes, serial_digests = _run(
                tmp_path, "transformer_inference", params, faultload_path,
                f"{scheme}-serial",
            )
            process_bytes, process_digests = _run(
                tmp_path, "transformer_inference", params, faultload_path,
                f"{scheme}-process", executor="process", n_workers=2,
            )
            # The artifact's own digests are the ground truth; every scheme
            # and backend must inject exactly that sequence, in trial order.
            assert serial_digests == expected
            assert process_digests == expected
            # And per scheme, the whole checkpoint is byte-identical across
            # backends and worker counts.
            assert process_bytes == serial_bytes
            by_scheme[scheme] = serial_bytes
        # Schemes differ in outcomes (that is what is being compared), so the
        # checkpoints themselves legitimately differ -- only the injected
        # fault streams agree.
        assert len(set(by_scheme.values())) > 1

    def test_efta_site_campaign_replays_identically_across_backends(
        self, faultload_path, tmp_path
    ):
        serial_bytes, serial_digests = _run(
            tmp_path, "efta_site_resilience", {"seq_len": 32, "head_dim": 16},
            faultload_path, "site-serial",
        )
        process_bytes, process_digests = _run(
            tmp_path, "efta_site_resilience", {"seq_len": 32, "head_dim": 16},
            faultload_path, "site-process", executor="process", n_workers=2,
        )
        expected = [
            load_faultload(faultload_path).digest_for(t) for t in range(N_TRIALS)
        ]
        assert serial_digests == expected
        assert process_digests == expected
        assert process_bytes == serial_bytes


class TestReplayGuards:
    def test_kernel_without_trial_index_raises(self, faultload_path):
        import numpy as np

        definition = get_campaign("transformer_inference")
        params = {"faultload": str(faultload_path), **TRANSFORMER_PARAMS}
        with pytest.raises(ValueError, match="_trial_index"):
            definition.trial(np.random.default_rng(0), params)

    def test_engine_rejects_too_short_faultload(self, faultload_path):
        spec = ExperimentSpec(
            campaign="transformer_inference",
            n_trials=N_TRIALS + 3,
            params=dict(TRANSFORMER_PARAMS),
            faultload=str(faultload_path),
        )
        with pytest.raises(ValueError, match="holds 4 trials"):
            ExperimentRunner(spec)

    def test_engine_checks_faultload_against_adaptive_cap(self, faultload_path, tmp_path):
        # An adaptive run tops up past n_trials to its max_trials, so the
        # artifact must hold every index up to that cap before a trial runs.
        spec = ExperimentSpec(
            campaign="transformer_inference",
            n_trials=N_TRIALS,
            params=dict(TRANSFORMER_PARAMS),
            faultload=str(faultload_path),
            adaptive={"target_ci": 0.01, "batch": N_TRIALS, "max_trials": 2 * N_TRIALS},
        )
        out = tmp_path / "adaptive.jsonl"
        with pytest.raises(ValueError, match="holds 4 trials but the experiment can run 8"):
            ExperimentRunner(spec, results_path=out)
        assert not out.exists()

    def test_engine_rejects_missing_faultload(self, tmp_path):
        spec = ExperimentSpec(
            campaign="transformer_inference",
            n_trials=2,
            params=dict(TRANSFORMER_PARAMS),
            faultload=str(tmp_path / "nope.jsonl"),
        )
        with pytest.raises(ValueError, match="does not exist"):
            ExperimentRunner(spec)

    def test_at_rest_faultload_rejected_by_fused_kernel(self, tmp_path):
        import numpy as np

        path = tmp_path / "at-rest.jsonl"
        FaultloadGenerator(model="weights_at_rest", n_trials=2, seed=0).generate().write(path)
        definition = get_campaign("efta_site_resilience")
        params = {"faultload": str(path), "_trial_index": 0, "seq_len": 32, "head_dim": 16}
        with pytest.raises(ValueError, match="no stored weights"):
            definition.trial(np.random.default_rng(0), params)

    def test_spec_faultload_serialises_only_when_set(self, faultload_path):
        plain = ExperimentSpec(campaign="transformer_inference", n_trials=2)
        assert "faultload" not in plain.to_dict()
        replay = ExperimentSpec(
            campaign="transformer_inference", n_trials=2, faultload=str(faultload_path)
        )
        data = replay.to_dict()
        assert data["faultload"] == str(faultload_path)
        assert ExperimentSpec.from_dict(data) == replay
