"""Tests for the trial-kernel registry and single-campaign runs: determinism, resume."""

from __future__ import annotations

import json

import pytest

from repro.exec import ExperimentRunner, ExperimentSpec, run_experiment
from repro.exec.checkpoint import TrialCheckpoint
from repro.fault.metrics import CampaignResult
from repro.fault.runner import available_campaigns, get_campaign, register_campaign


@pytest.fixture(autouse=True)
def _registry_snapshot():
    """Undo test-local register_campaign calls so reruns in one process pass."""
    from repro.fault import runner as runner_module

    # Materialise the built-ins first: they register on module import, which
    # happens only once per process, so they must survive the restore.
    runner_module.available_campaigns()
    saved = dict(runner_module._REGISTRY)
    yield
    runner_module._REGISTRY.clear()
    runner_module._REGISTRY.update(saved)


def run(spec: ExperimentSpec, n_workers: int = 1, results_path=None):
    """Run one campaign on the serial backend, or the process pool when
    ``n_workers > 1``, and return its aggregate."""
    executor = "serial" if n_workers == 1 else "process"
    return run_experiment(
        spec, executor=executor, n_workers=n_workers, results_path=results_path
    ).result


SPEC = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=10,
    seed=7,
    params={"bit_error_rate": 1e-7, "scheme": "tensor", "rows": 64, "cols": 64},
)

SWEEP_SPEC = ExperimentSpec(
    campaign="abft_detection_sweep",
    n_trials=8,
    seed=3,
    params={"thresholds": [0.01, 0.3, 1.0], "rows": 32, "cols": 32, "depth": 32},
)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_campaigns()
        for expected in (
            "abft_error_coverage",
            "abft_detection_sweep",
            "snvr_detection_sweep",
            "restriction_error_distribution",
            "efta_site_resilience",
        ):
            assert expected in names

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            get_campaign("nonexistent_campaign")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_campaign("abft_error_coverage")
            def _clash(rng, params):  # pragma: no cover - never runs
                return {}

    def test_sweep_without_thresholds_fails_fast(self):
        spec = ExperimentSpec(campaign="abft_detection_sweep", n_trials=500, seed=0, params={})
        with pytest.raises(ValueError, match="thresholds"):
            # Must raise on trial 0, not after 500 trials in the aggregator.
            run(spec)

    def test_trial_params_isolated_between_trials(self):
        @register_campaign("test_runner_param_mutator")
        def _mutator(rng, params):
            # A kernel that consumes a nested param must not leak the
            # mutation into later trials (results would depend on sharding).
            params["queue"].pop()
            return {"injected": 1, "detected": len(params["queue"])}

        spec = ExperimentSpec(
            campaign="test_runner_param_mutator",
            n_trials=6,
            seed=0,
            params={"queue": [1, 2, 3]},
        )
        result = run(spec)
        assert [o.detected for o in result.outcomes] == [2] * 6

    def test_custom_campaign_runs_in_process(self):
        @register_campaign("test_runner_custom_counter")
        def _counter(rng, params):
            return {"injected": 1, "detected": 1, "corrected": int(rng.integers(2))}

        spec = ExperimentSpec(campaign="test_runner_custom_counter", n_trials=6, seed=0)
        result = run(spec)
        assert isinstance(result, CampaignResult)
        assert result.n_trials == 6


class TestDeterminism:
    def test_worker_count_does_not_change_result(self):
        serial = run(SPEC, n_workers=1)
        sharded = run(SPEC, n_workers=4)
        assert serial.outcomes == sharded.outcomes

    def test_sweep_identical_across_workers(self):
        serial = run(SWEEP_SPEC, n_workers=1)
        sharded = run(SWEEP_SPEC, n_workers=3)
        assert serial == sharded

    def test_results_file_bytes_identical_across_workers(self, tmp_path):
        one = tmp_path / "w1.jsonl"
        four = tmp_path / "w4.jsonl"
        run(SPEC, n_workers=1, results_path=one)
        run(SPEC, n_workers=4, results_path=four)
        assert one.read_bytes() == four.read_bytes()

    def test_different_seeds_differ(self):
        other = ExperimentSpec.from_dict({**SPEC.to_dict(), "seed": 8})
        assert run(SPEC).outcomes != run(other).outcomes


class TestResume:
    def test_interrupted_run_resumes_to_same_result(self, tmp_path):
        # Uninterrupted reference run.
        full_path = tmp_path / "full.jsonl"
        reference = run(SPEC, n_workers=1, results_path=full_path)

        # Simulate a run killed mid-campaign: keep the header and the first
        # four finished trials, truncate the rest (plus a torn partial line).
        partial_path = tmp_path / "partial.jsonl"
        lines = full_path.read_text().splitlines()
        partial_path.write_text("\n".join(lines[:5]) + '\n{"trial": 9, "rec')

        resumed = run(SPEC, n_workers=2, results_path=partial_path)
        assert resumed.outcomes == reference.outcomes
        assert partial_path.read_bytes() == full_path.read_bytes()

    def test_completed_run_is_not_recomputed(self, tmp_path):
        path = tmp_path / "done.jsonl"
        reference = run(SPEC, results_path=path)
        before = path.read_bytes()
        again = run(SPEC, results_path=path)
        assert again.outcomes == reference.outcomes
        assert path.read_bytes() == before

    def test_resume_ignores_cosmetic_name_label(self, tmp_path):
        path = tmp_path / "named.jsonl"
        reference = run(SPEC, results_path=path)
        renamed = ExperimentSpec.from_dict({**SPEC.to_dict(), "name": "relabelled"})
        assert run(renamed, results_path=path).outcomes == reference.outcomes

    def test_append_after_torn_final_line_stays_parseable(self, tmp_path):
        # A kill mid-write leaves no trailing newline; the next appended
        # record must start on a fresh line, not merge into the torn one.
        path = tmp_path / "torn.jsonl"
        path.write_text('{"spec": {}}\n{"trial": 0, "rec')
        checkpoint = TrialCheckpoint(SPEC, path)
        checkpoint.open(header=False)
        checkpoint.append(1, {"ok": 1})
        checkpoint.close()
        last = path.read_text().splitlines()[-1]
        assert json.loads(last) == {"trial": 1, "record": {"ok": 1}}

    def test_mismatched_spec_refused(self, tmp_path):
        path = tmp_path / "other.jsonl"
        run(SPEC, results_path=path)
        other = ExperimentSpec.from_dict({**SPEC.to_dict(), "seed": 99})
        with pytest.raises(ValueError, match="different"):
            run(other, results_path=path)

    def test_serial_run_checkpoints_each_trial(self, tmp_path):
        calls = {"n": 0, "raised": False}

        @register_campaign("test_runner_mid_crash")
        def _crashy(rng, params):
            if calls["n"] == 3 and not calls["raised"]:
                calls["raised"] = True
                raise RuntimeError("simulated mid-campaign crash")
            calls["n"] += 1
            return {"injected": 1, "detected": 1}

        spec = ExperimentSpec(campaign="test_runner_mid_crash", n_trials=10, seed=0)
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            run(spec, results_path=path)
        # A serial run must checkpoint trial-by-trial: the three finished
        # trials are on disk, and the resume only runs the remaining seven.
        assert len(path.read_text().splitlines()) == 1 + 3
        result = run(spec, results_path=path)
        assert result.n_trials == 10
        assert calls["n"] == 10

    def test_sweep_checkpoint_stays_valid_json(self, tmp_path):
        # Seed 42 drives one faulty residual non-finite; the record must
        # still be RFC-compliant JSON (no NaN/Infinity constants).
        spec = ExperimentSpec(
            campaign="abft_detection_sweep",
            n_trials=25,
            seed=42,
            params={"thresholds": [0.01]},
        )
        path = tmp_path / "sweep.jsonl"
        run(spec, results_path=path)

        def reject_constant(value):
            raise AssertionError(f"non-RFC JSON constant {value!r} in checkpoint")

        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=reject_constant)

    def test_canonical_rewrite_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run(SPEC, results_path=path)
        run(SPEC, results_path=path)  # resume of a complete run
        assert list(tmp_path.iterdir()) == [path]

    def test_checkpoint_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run(SPEC, results_path=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert ExperimentSpec.from_dict(header["spec"]) == SPEC
        trials = [json.loads(line) for line in lines[1:]]
        assert [t["trial"] for t in trials] == list(range(SPEC.n_trials))


class TestRunnerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(SPEC, executor="process", n_workers=0)
