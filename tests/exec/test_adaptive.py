"""Tests for adaptive campaigns: stop policy, round scheduling, resume guards.

Covers the :class:`~repro.exec.adaptive.AdaptiveSpec` policy object, the
engine's round-based execution (early stop, top-up past ``n_trials``,
byte-parity across backends/worker counts), the checkpoint-layer guards the
adaptive path leans on (count-extendable resume, shrunk-spec refusal,
record-less trial lines), and the growing-totals progress tracker.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.adaptive import AdaptiveSpec
from repro.exec.checkpoint import TrialCheckpoint, parse_results_text
from repro.exec.engine import run_experiment
from repro.exec.progress import ProgressTracker
from repro.exec.spec import ExperimentSpec
from repro.fault.metrics import CampaignResult, TrialOutcome
from repro.fault.runner import register_campaign
from repro.store import MANIFEST_NAME

SETTINGS = dict(max_examples=25, deadline=None)

PARALLEL_BACKENDS = ["process", "distributed"]


# --------------------------------------------------------------------------- #
# A fast deterministic toy campaign (serial-only: registered in this module)
# --------------------------------------------------------------------------- #
def _toy_aggregate(records, params):
    result = CampaignResult()
    for record in records:
        result.add(TrialOutcome(**record))
    return result


@register_campaign("adaptive_toy", aggregate=_toy_aggregate)
def _toy_trial(rng, params):
    """One injected trial; detection is a coin flip at params['p']."""
    detected = int(rng.random() < float(params.get("p", 0.5)))
    return {
        "injected": 1,
        "detected": detected,
        "corrected": detected,
        "output_rel_error": 0.0,
    }


def toy_spec(n_trials=8, adaptive=None, seed=11, p=0.5, name="toy"):
    return ExperimentSpec(
        campaign="adaptive_toy",
        n_trials=n_trials,
        seed=seed,
        params={"p": p},
        name=name,
        adaptive=adaptive,
    )


#: A real (importable) sweep so fork/spawn workers can run it adaptively.
REAL_SWEEP = {
    "campaign": "abft_error_coverage",
    "n_trials": 4,
    "seed": 7,
    "base_params": {"bit_error_rate": 1e-3, "rows": 32, "cols": 32},
    "grid": {"scheme": ["tensor", "element"]},
    "name": "adaptive-parity",
    "adaptive": {"target_ci": 0.18, "batch": 4, "max_trials": 12},
}


# --------------------------------------------------------------------------- #
# AdaptiveSpec policy object
# --------------------------------------------------------------------------- #
class TestAdaptiveSpec:
    def test_round_trip(self):
        spec = AdaptiveSpec(
            target_ci=0.04,
            batch=16,
            max_trials=256,
            confidence=0.99,
            method="clopper_pearson",
            metric="coverage",
            threshold=0.9,
        )
        assert AdaptiveSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_not_serialised(self):
        assert AdaptiveSpec(target_ci=0.05).to_dict() == {
            "target_ci": 0.05,
            "batch": 32,
        }

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown AdaptiveSpec fields"):
            AdaptiveSpec.from_dict({"target_ci": 0.05, "rounds": 3})

    def test_target_ci_required(self):
        with pytest.raises(ValueError, match="target_ci"):
            AdaptiveSpec.from_dict({"batch": 8})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_ci": 0.0},
            {"target_ci": 0.05, "batch": 0},
            {"target_ci": 0.05, "max_trials": -1},
            {"target_ci": 0.05, "confidence": 1.0},
            {"target_ci": 0.05, "method": "jeffreys"},
            {"target_ci": 0.05, "metric": "latency"},
            {"target_ci": 0.05, "threshold": 1.5},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveSpec(**kwargs)

    def test_round_targets(self):
        spec = AdaptiveSpec(target_ci=0.05, batch=8, max_trials=20)
        assert spec.first_target(64) == 8
        assert spec.next_target(8, 64) == 16
        assert spec.next_target(16, 64) == 20  # capped
        assert AdaptiveSpec(target_ci=0.05, batch=8).first_target(6) == 6

    def test_evaluate_stops_on_tight_interval(self):
        result = _toy_aggregate(
            [{"injected": 1, "detected": 1}] * 400, {}
        )
        decision = AdaptiveSpec(target_ci=0.05).evaluate(result)
        assert decision.stop and "half-width" in decision.reason

    def test_evaluate_continues_on_wide_interval(self):
        result = _toy_aggregate(
            [{"injected": 1, "detected": 1}, {"injected": 1, "detected": 0}], {}
        )
        decision = AdaptiveSpec(target_ci=0.02).evaluate(result)
        assert not decision.stop
        assert decision.interval is not None

    def test_evaluate_never_stops_unmeasured_metric(self):
        """Zero denominator is 'unmeasured', not a vacuously tight 0%."""
        result = _toy_aggregate([{"injected": 1, "detected": 1}] * 500, {})
        policy = AdaptiveSpec(target_ci=0.3, metric="false_alarm_rate")
        decision = policy.evaluate(result)
        assert not decision.stop
        assert decision.reason == "no observations"

    def test_evaluate_threshold_settles_early(self):
        result = _toy_aggregate([{"injected": 1, "detected": 1}] * 10, {})
        cleared = AdaptiveSpec(target_ci=0.01, threshold=0.5).evaluate(result)
        assert cleared.stop and "cleared" in cleared.reason
        missed = AdaptiveSpec(target_ci=0.01, threshold=0.999).evaluate(
            _toy_aggregate([{"injected": 1, "detected": 0}] * 10, {})
        )
        assert missed.stop and "missed" in missed.reason

    def test_evaluate_rejects_countless_aggregate(self):
        with pytest.raises(ValueError, match="metric_counts"):
            AdaptiveSpec(target_ci=0.05).evaluate(object())


class TestSpecIntegration:
    def test_experiment_spec_round_trips_adaptive_block(self):
        spec = toy_spec(adaptive=AdaptiveSpec(target_ci=0.1, batch=4))
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert "adaptive" in json.loads(spec.to_json())

    def test_legacy_specs_serialise_without_adaptive(self):
        spec = toy_spec()
        assert "adaptive" not in spec.to_dict()
        assert "adaptive" not in toy_spec(
            adaptive=AdaptiveSpec(target_ci=0.1)
        ).expand()[0].to_dict()


# --------------------------------------------------------------------------- #
# Checkpoint guards (regressions for the resume bugfixes)
# --------------------------------------------------------------------------- #
class TestCheckpointGuards:
    def _write_checkpoint(self, path: Path, n_trials: int) -> ExperimentSpec:
        spec = toy_spec(n_trials=n_trials)
        run_experiment(spec, results_path=path)
        return spec

    def test_resume_extends_under_larger_n_trials(self, tmp_path):
        """A file written at one count resumes under a larger one."""
        path = tmp_path / "out.jsonl"
        self._write_checkpoint(path, 4)
        small = path.read_bytes()
        result = run_experiment(toy_spec(n_trials=8), results_path=path)
        assert len(result.points[0].records.records) == 8
        # The first 4 trial lines are the resumed bytes, verbatim.
        small_trials = [l for l in small.decode().splitlines() if '"trial"' in l]
        big_trials = [l for l in path.read_text().splitlines() if '"trial"' in l]
        assert big_trials[:4] == small_trials

    def test_shrunk_spec_refused_before_destroying_records(self, tmp_path):
        """Records past the spec count are committed data, not noise to drop."""
        path = tmp_path / "out.jsonl"
        self._write_checkpoint(path, 8)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="8 committed trial records"):
            run_experiment(toy_spec(n_trials=4), results_path=path)
        assert path.read_bytes() == before  # nothing rewritten, nothing lost

    def test_shrunk_spec_error_names_counts(self, tmp_path):
        path = tmp_path / "out.jsonl"
        spec = self._write_checkpoint(path, 6)
        checkpoint = TrialCheckpoint(
            ExperimentSpec(
                campaign=spec.campaign,
                n_trials=2,
                seed=spec.seed,
                params=spec.params,
            ),
            path,
        )
        with pytest.raises(ValueError) as excinfo:
            checkpoint.load()
        message = str(excinfo.value)
        assert "index 5" in message and "only 2 trials" in message

    def test_record_less_trial_line_skipped(self):
        """A trial line without its record parses like a torn line."""
        text = "\n".join(
            [
                json.dumps({"spec": toy_spec(n_trials=3).to_dict()}),
                json.dumps({"trial": 0, "record": {"injected": 1}}),
                json.dumps({"trial": 1}),  # torn mid-line / hand-edited
                json.dumps({"trial": 2, "record": {"injected": 1}}),
            ]
        )
        spec_dict, records = parse_results_text(text)
        assert spec_dict is not None
        assert sorted(records) == [0, 2]

    def test_record_less_trial_line_recomputed_on_resume(self, tmp_path):
        path = tmp_path / "out.jsonl"
        self._write_checkpoint(path, 4)
        reference = path.read_bytes()
        lines = path.read_text().splitlines()
        lines[2] = '{"trial": 1}'  # drop trial 1's record payload
        path.write_text("\n".join(lines) + "\n")
        run_experiment(toy_spec(n_trials=4), results_path=path)
        assert path.read_bytes() == reference  # recomputed, byte-identical


# --------------------------------------------------------------------------- #
# Progress tracker growth
# --------------------------------------------------------------------------- #
class TestProgressExtension:
    def test_extend_point_accepts_trials_past_initial_total(self):
        tracker = ProgressTracker(point_totals=[2], listeners=[])
        tracker.start()
        tracker.trial_done(0)
        tracker.trial_done(0)
        with pytest.raises(ValueError, match="already has all"):
            tracker.trial_done(0)
        tracker.extend_point(0, 4)
        tracker.trial_done(0)
        assert tracker.point_done[0] == 3
        assert tracker.trials_total == 4

    def test_extend_reopens_completed_point(self):
        tracker = ProgressTracker(point_totals=[1], initial_done=[1], listeners=[])
        assert tracker.points_done == 1
        tracker.extend_point(0, 2)
        assert tracker.points_done == 0
        assert not tracker.complete

    def test_extend_rejects_shrink(self):
        tracker = ProgressTracker(point_totals=[4], listeners=[])
        with pytest.raises(ValueError, match="shrink"):
            tracker.extend_point(0, 2)

    def test_extend_same_total_is_noop(self):
        tracker = ProgressTracker(point_totals=[2], initial_done=[2], listeners=[])
        tracker.extend_point(0, 2)
        assert tracker.points_done == 1


# --------------------------------------------------------------------------- #
# Engine round scheduling (serial, toy campaign)
# --------------------------------------------------------------------------- #
class TestAdaptiveEngine:
    def test_loose_target_stops_early(self, tmp_path):
        path = tmp_path / "out.jsonl"
        result = run_experiment(
            toy_spec(n_trials=32, adaptive=AdaptiveSpec(target_ci=0.45, batch=4)),
            results_path=path,
        )
        point = result.points[0]
        assert point.spec.n_trials == 4  # stopped at the first boundary
        assert len(point.records.records) == 4
        header = json.loads(path.read_text().splitlines()[0])["spec"]
        assert header["n_trials"] == 4  # the file is self-consistent

    def test_tight_target_tops_up_past_n_trials(self, tmp_path):
        result = run_experiment(
            toy_spec(
                n_trials=8,
                adaptive=AdaptiveSpec(target_ci=0.01, batch=8, max_trials=40),
            ),
            results_path=tmp_path / "out.jsonl",
        )
        assert result.points[0].spec.n_trials == 40  # ran to the cap

    def test_threshold_settles_before_target_ci(self, tmp_path):
        """p=1 clears a 0.5 threshold after one round despite a tight CI goal."""
        result = run_experiment(
            toy_spec(
                n_trials=64,
                p=1.0,
                adaptive=AdaptiveSpec(target_ci=0.001, batch=8, threshold=0.5),
            ),
        )
        assert result.points[0].spec.n_trials == 8

    def test_adaptive_equals_one_shot_bytes(self, tmp_path):
        adaptive_path = tmp_path / "adaptive.jsonl"
        fixed_path = tmp_path / "fixed.jsonl"
        run_experiment(
            toy_spec(
                n_trials=6,
                adaptive=AdaptiveSpec(target_ci=0.001, batch=5, max_trials=17),
            ),
            results_path=adaptive_path,
        )
        run_experiment(toy_spec(n_trials=17), results_path=fixed_path)
        assert adaptive_path.read_bytes() == fixed_path.read_bytes()

    def test_rerun_with_different_policy_extends_not_refuses(self, tmp_path):
        """The stopping policy is not part of the resume identity."""
        results = tmp_path / "sweep"
        spec = dict(REAL_SWEEP, campaign="adaptive_toy", base_params={"p": 0.5})
        spec["grid"] = {"p": [0.2, 0.8]}
        del spec["base_params"]
        loose = dict(spec, adaptive={"target_ci": 0.45, "batch": 4})
        run_experiment(loose, results_path=results)
        first = {
            f.name: f.read_bytes() for f in results.glob("*.jsonl")
        }
        tight = dict(spec, adaptive={"target_ci": 0.12, "batch": 4, "max_trials": 24})
        result = run_experiment(tight, results_path=results)
        for point in result.points:
            assert point.spec.n_trials >= 4
        second = {f.name: f.read_bytes() for f in results.glob("*.jsonl")}
        for name, before in first.items():
            # Every byte of the first (looser) run survives as a prefix of
            # the extended file, minus the rewritten header count.
            before_trials = [
                l for l in before.decode().splitlines() if '"trial"' in l
            ]
            after_trials = [
                l for l in second[name].decode().splitlines() if '"trial"' in l
            ]
            assert after_trials[: len(before_trials)] == before_trials

    def test_progress_snapshot_reflects_stopped_totals(self, tmp_path):
        results = tmp_path / "sweep"
        spec = {
            "campaign": "adaptive_toy",
            "n_trials": 32,
            "seed": 5,
            "grid": {"p": [0.5]},
            "adaptive": {"target_ci": 0.45, "batch": 4},
            "name": "snap",
        }
        run_experiment(spec, results_path=results)
        manifest = json.loads((results / MANIFEST_NAME).read_text())
        assert manifest["progress"]["state"] == "complete"
        assert manifest["progress"]["points"] == [{"done": 4, "total": 4}]

    def test_non_campaign_aggregate_fails_loudly(self):
        with pytest.raises(ValueError, match="metric_counts"):
            run_experiment(
                {
                    "campaign": "attention_cost",
                    "n_trials": 1,
                    "params": {"scheme": "efta_unified"},
                    "adaptive": {"target_ci": 0.1, "batch": 1},
                }
            )


# --------------------------------------------------------------------------- #
# Byte parity across backends and worker counts
# --------------------------------------------------------------------------- #
class TestAdaptiveByteParity:
    @pytest.fixture(scope="class")
    def serial_bytes(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serial")
        run_experiment(REAL_SWEEP, executor="serial", results_path=out)
        return {f.name: f.read_bytes() for f in sorted(out.glob("*.jsonl"))}

    @pytest.mark.parametrize(
        "backend,n_workers",
        [("process", 2), ("process", 3), ("distributed", 2)],
    )
    def test_backend_matches_serial(
        self, backend, n_workers, serial_bytes, tmp_path
    ):
        if backend == "distributed":
            from repro.exec.distributed import DistributedExecutor

            executor = DistributedExecutor(n_workers=n_workers, lease_timeout=10.0)
        else:
            executor = backend
        run_experiment(
            REAL_SWEEP, executor=executor, n_workers=n_workers, results_path=tmp_path
        )
        produced = {f.name: f.read_bytes() for f in sorted(tmp_path.glob("*.jsonl"))}
        assert produced == serial_bytes


# --------------------------------------------------------------------------- #
# Property: top-up in K rounds == one shot, byte for byte
# --------------------------------------------------------------------------- #
class TestTopUpProperty:
    @given(
        n_trials=st.integers(min_value=1, max_value=12),
        batch=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(**SETTINGS)
    def test_round_schedule_is_count_invariant(
        self, tmp_path_factory, n_trials, batch, extra, seed
    ):
        """Reaching N trials in any number of rounds equals one shot of N."""
        cap = n_trials + extra
        tmp = tmp_path_factory.mktemp("prop")
        adaptive_path = tmp / "adaptive.jsonl"
        fixed_path = tmp / "fixed.jsonl"
        run_experiment(
            toy_spec(
                n_trials=n_trials,
                seed=seed,
                # A target no real CI reaches: every point runs to the cap.
                adaptive=AdaptiveSpec(target_ci=1e-6, batch=batch, max_trials=cap),
            ),
            results_path=adaptive_path,
        )
        run_experiment(toy_spec(n_trials=cap, seed=seed), results_path=fixed_path)
        assert adaptive_path.read_bytes() == fixed_path.read_bytes()
