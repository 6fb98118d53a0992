"""Tests for the unified ExperimentSpec: auto-detection, round-trips, expansion."""

from __future__ import annotations

import json

import pytest

from repro.exec.spec import ExperimentSpec, load_spec

CAMPAIGN_DICT = {
    "campaign": "abft_error_coverage",
    "n_trials": 10,
    "seed": 7,
    "params": {"bit_error_rate": 1e-7, "scheme": "tensor"},
    "name": "one-campaign",
}

SWEEP_DICT = {
    "campaign": "abft_error_coverage",
    "n_trials": 4,
    "seed": 13,
    "base_params": {"rows": 64},
    "grid": {"scheme": ["tensor", "element"], "bit_error_rate": [1e-9, 1e-8]},
    "name": "one-sweep",
}


class TestAutoDetect:
    def test_campaign_shape_detected(self):
        spec = ExperimentSpec.from_dict(CAMPAIGN_DICT)
        assert spec.kind == "campaign"
        assert not spec.is_sweep
        assert spec.n_points == 1

    def test_sweep_shape_detected(self):
        spec = ExperimentSpec.from_dict(SWEEP_DICT)
        assert spec.kind == "sweep"
        assert spec.is_sweep
        assert spec.n_points == 4
        assert spec.axes == ["bit_error_rate", "scheme"]

    def test_load_spec_auto_detects(self):
        assert not load_spec(json.dumps(CAMPAIGN_DICT)).is_sweep
        assert load_spec(json.dumps(SWEEP_DICT)).is_sweep

    def test_params_in_sweep_shape_accepted(self):
        data = dict(SWEEP_DICT)
        data["params"] = data.pop("base_params")
        assert ExperimentSpec.from_dict(data).params == {"rows": 64}

    def test_both_param_spellings_rejected(self):
        data = dict(SWEEP_DICT)
        data["params"] = {"rows": 1}
        with pytest.raises(ValueError, match="not both"):
            ExperimentSpec.from_dict(data)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentSpec.from_dict({**CAMPAIGN_DICT, "bogus": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentSpec.from_dict([1, 2])


class TestRoundTrip:
    def test_campaign_shape_round_trips(self):
        spec = ExperimentSpec.from_dict(CAMPAIGN_DICT)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert "grid" not in spec.to_dict()

    def test_sweep_shape_round_trips(self):
        spec = ExperimentSpec.from_dict(SWEEP_DICT)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["base_params"] == {"rows": 64}

    def test_from_dict_does_not_alias_nested_mutables(self):
        data = json.loads(json.dumps(SWEEP_DICT))
        spec = ExperimentSpec.from_dict(data)
        data["grid"]["scheme"].append("mutated")
        assert spec.grid["scheme"] == ["tensor", "element"]

    def test_from_dict_does_not_alias_nested_params(self):
        data = {"campaign": "c", "n_trials": 1, "params": {"thresholds": [0.1]}}
        spec = ExperimentSpec.from_dict(data)
        data["params"]["thresholds"].append(0.5)
        assert spec.params == {"thresholds": [0.1]}


class TestValidation:
    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(campaign="", n_trials=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(campaign="x", n_trials=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec(campaign="x", n_trials=1, seed=-1)

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            ExperimentSpec(campaign="x", n_trials=1, grid={"a": []})

    def test_label_defaults_to_campaign(self):
        assert ExperimentSpec(campaign="c", n_trials=1).label == "c"
        assert ExperimentSpec(campaign="c", n_trials=1, name="x").label == "x"


class TestExpansion:
    def test_campaign_expands_to_itself(self):
        spec = ExperimentSpec.from_dict(CAMPAIGN_DICT)
        [(point, campaign)] = spec.expanded()
        assert point == {}
        assert campaign == spec
        assert campaign.to_dict() == CAMPAIGN_DICT

    def test_sweep_expansion_bytes_are_pinned(self):
        # The point specs are the checkpoint headers of every results file
        # ever written, so their bytes must never move.
        assert [s.to_json() for s in ExperimentSpec.from_dict(SWEEP_DICT).expand()] == [
            '{"campaign":"abft_error_coverage","n_trials":4,'
            f'"name":"one-sweep/bit_error_rate={ber},scheme={scheme}",'
            f'"params":{{"bit_error_rate":{ber},"rows":64,"scheme":"{scheme}"}},"seed":13}}'
            for ber in ("1e-09", "1e-08")
            for scheme in ("tensor", "element")
        ]

    def test_point_specs_fold_faultload_and_drop_policy_fields(self):
        spec = ExperimentSpec(
            campaign="transformer_inference",
            n_trials=16,
            seed=7,
            params={"scheme": "efta_unified"},
            name="x",
            faultload="fl.jsonl",
            adaptive={"target_ci": 0.45, "batch": 4},
            store="sqlite",
        )
        [point] = spec.expand()
        assert point.to_json() == (
            '{"campaign":"transformer_inference","n_trials":16,"name":"x",'
            '"params":{"faultload":"fl.jsonl","scheme":"efta_unified"},"seed":7}'
        )

    def test_explicit_params_faultload_wins(self):
        spec = ExperimentSpec(
            campaign="x", n_trials=1, params={"faultload": "a.jsonl"}, faultload="b.jsonl"
        )
        assert spec.expand()[0].params == {"faultload": "a.jsonl"}

    def test_grid_axis_overrides_base_param(self):
        spec = ExperimentSpec(
            campaign="x", n_trials=1, params={"scheme": "efta"}, grid={"scheme": ["none"]}
        )
        assert [s.params["scheme"] for s in spec.expand()] == ["none"]


class TestCoercion:
    def test_from_any_coercions(self):
        experiment = ExperimentSpec.from_dict(SWEEP_DICT)
        assert ExperimentSpec.from_any(experiment) is experiment
        assert ExperimentSpec.from_any(SWEEP_DICT) == experiment
        assert ExperimentSpec.from_any(json.dumps(SWEEP_DICT)) == experiment

    def test_from_any_rejects_other_types(self):
        with pytest.raises(TypeError):
            ExperimentSpec.from_any(42)
