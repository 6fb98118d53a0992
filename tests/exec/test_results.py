"""Tests for the typed result surface: record sets, merges, experiment results."""

from __future__ import annotations

import pytest

from repro.exec.results import (
    ExperimentResult,
    RecordSummary,
    SummaryProtocol,
    TrialRecordSet,
    single_record_aggregate,
)
from repro.exec.spec import ExperimentSpec
from repro.exec.engine import run_experiment
from repro.fault.metrics import CampaignResult

SPEC = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=4,
    seed=7,
    params={"bit_error_rate": 1e-7, "scheme": "tensor", "rows": 32, "cols": 32},
)


def _record(i: int) -> dict:
    return {"injected": 1, "detected": 1, "corrected": i % 2, "output_rel_error": 0.0}


def _full_set() -> TrialRecordSet:
    records = TrialRecordSet(spec=SPEC)
    for i in range(SPEC.n_trials):
        records.add(i, _record(i))
    return records


class TestTrialRecordSet:
    def test_add_and_completeness(self):
        records = TrialRecordSet(spec=SPEC)
        assert not records.complete
        assert records.missing() == [0, 1, 2, 3]
        records.add(2, _record(2))
        assert len(records) == 1
        assert records.missing() == [0, 1, 3]

    def test_out_of_range_index_rejected(self):
        records = TrialRecordSet(spec=SPEC)
        with pytest.raises(ValueError, match="outside"):
            records.add(4, _record(4))
        with pytest.raises(ValueError, match="outside"):
            records.add(-1, _record(0))

    def test_ordered_requires_completeness(self):
        records = TrialRecordSet(spec=SPEC)
        records.add(0, _record(0))
        with pytest.raises(ValueError, match="incomplete"):
            records.ordered()

    def test_aggregate_folds_through_registry(self):
        result = _full_set().aggregate()
        assert isinstance(result, CampaignResult)
        assert result.n_trials == 4
        assert result.detection_rate == 1.0

    def test_summary_protocol(self):
        assert isinstance(_full_set().aggregate(), SummaryProtocol)
        assert _full_set().summary()["n_trials"] == 4

    def test_jsonl_round_trip(self):
        records = _full_set()
        reloaded = TrialRecordSet.from_jsonl(records.to_jsonl())
        assert reloaded.spec == SPEC
        assert reloaded.records == records.records

    def test_jsonl_matches_engine_checkpoint_bytes(self, tmp_path):
        """to_jsonl writes the exact canonical checkpoint format."""
        path = tmp_path / "run.jsonl"
        result = run_experiment(SPEC, results_path=path)
        assert path.read_text() == result.points[0].records.to_jsonl()

    def test_from_jsonl_requires_header_or_spec(self):
        with pytest.raises(ValueError, match="spec header"):
            TrialRecordSet.from_jsonl('{"trial": 0, "record": {}}\n')
        records = TrialRecordSet.from_jsonl('{"trial": 0, "record": {"x": 1}}\n', spec=SPEC)
        assert records.records == {0: {"x": 1}}

    def test_from_jsonl_rejects_foreign_header(self):
        other = ExperimentSpec(campaign="snvr_detection_sweep", n_trials=4)
        with pytest.raises(ValueError, match="belongs to"):
            TrialRecordSet.from_jsonl(_full_set().to_jsonl(), spec=other)

    def test_save_load_round_trip(self, tmp_path):
        records = _full_set()
        records.save(tmp_path / "set.jsonl")
        assert TrialRecordSet.load(tmp_path / "set.jsonl").records == records.records


class TestMerge:
    def test_disjoint_shards_merge(self):
        left = TrialRecordSet(spec=SPEC, records={0: _record(0), 1: _record(1)})
        right = TrialRecordSet(spec=SPEC, records={2: _record(2), 3: _record(3)})
        merged = left.merge(right)
        assert merged.complete
        assert merged.records == _full_set().records

    def test_overlapping_identical_records_merge(self):
        left = TrialRecordSet(spec=SPEC, records={0: _record(0), 1: _record(1)})
        right = TrialRecordSet(spec=SPEC, records={1: _record(1), 2: _record(2)})
        assert len(left.merge(right)) == 3

    def test_conflicting_records_refused(self):
        left = TrialRecordSet(spec=SPEC, records={0: _record(0)})
        right = TrialRecordSet(spec=SPEC, records={0: {"injected": 9}})
        with pytest.raises(ValueError, match="disagree"):
            left.merge(right)

    def test_different_specs_refused(self):
        other = ExperimentSpec.from_dict({**SPEC.to_dict(), "seed": 99})
        with pytest.raises(ValueError, match="specs differ"):
            _full_set().merge(TrialRecordSet(spec=other))

    def test_cosmetic_name_does_not_block_merge(self):
        renamed = ExperimentSpec.from_dict({**SPEC.to_dict(), "name": "relabelled"})
        merged = _full_set().merge(TrialRecordSet(spec=renamed))
        assert merged.complete


class TestExperimentResult:
    SWEEP = ExperimentSpec(
        campaign="abft_error_coverage",
        n_trials=3,
        seed=7,
        params={"rows": 32, "cols": 32},
        grid={"scheme": ["tensor", "element"], "bit_error_rate": [1e-8, 1e-7]},
        name="res-test",
    )

    def test_sweep_points_carry_their_point_specs(self):
        result = run_experiment(self.SWEEP)
        assert result.spec.axes == ["bit_error_rate", "scheme"]
        assert len(result) == 4
        assert [entry.spec for entry in result] == self.SWEEP.expand()
        assert [entry.result.n_trials for entry in result] == [3] * 4

    def test_jsonl_round_trip_reaggregates(self):
        result = run_experiment(self.SWEEP)
        reloaded = ExperimentResult.from_jsonl(result.to_jsonl())
        assert reloaded.complete
        assert reloaded.spec == self.SWEEP
        for a, b in zip(result.points, reloaded.points):
            assert a.result.outcomes == b.result.outcomes

    def test_shard_merge(self):
        result = run_experiment(self.SWEEP)
        text = result.to_jsonl()
        lines = text.splitlines()
        # Split the records into two shards (header kept in both).
        shard_a = "\n".join([lines[0]] + lines[1:7]) + "\n"
        shard_b = "\n".join([lines[0]] + lines[7:]) + "\n"
        partial_a = ExperimentResult.from_jsonl(shard_a)
        partial_b = ExperimentResult.from_jsonl(shard_b)
        assert not partial_a.complete
        merged = partial_a.merge(partial_b)
        assert merged.complete
        for a, b in zip(result.points, merged.points):
            assert a.result.outcomes == b.result.outcomes

    def test_from_jsonl_drops_out_of_range_trials(self):
        """Edited/mixed streams must read as incomplete, not crash aggregation."""
        from repro.fault.runner import _canonical_json

        campaign = ExperimentSpec(campaign="abft_error_coverage", n_trials=2, seed=7)
        text = "\n".join(
            [
                _canonical_json({"experiment": campaign.to_dict(), "executor": "serial"}),
                _canonical_json({"point": 0, "trial": 0, "record": {"injected": 1}}),
                _canonical_json({"point": 0, "trial": 5, "record": {"injected": 1}}),
            ]
        ) + "\n"
        result = ExperimentResult.from_jsonl(text)
        assert not result.complete
        assert result.points[0].records.records == {0: {"injected": 1}}
        assert result.points[0].result is None

    def test_merge_rejects_different_spec(self):
        result = run_experiment(self.SWEEP)
        other_spec = ExperimentSpec.from_dict({**self.SWEEP.to_dict(), "seed": 9})
        other = run_experiment(other_spec)
        with pytest.raises(ValueError, match="specs differ"):
            result.merge(other)

    def test_single_point_result_property(self):
        campaign = run_experiment(SPEC)
        assert isinstance(campaign.result, CampaignResult)
        sweep = run_experiment(self.SWEEP)
        with pytest.raises(ValueError, match="grid"):
            _ = sweep.result

    def test_results_by_point_keys(self):
        sweep = run_experiment(self.SWEEP)
        by_point = sweep.results_by_point()
        # Axis-sorted coordinates: (bit_error_rate, scheme).
        assert set(by_point) == {
            (1e-8, "tensor"),
            (1e-8, "element"),
            (1e-7, "tensor"),
            (1e-7, "element"),
        }

    def test_summary_keyed_by_point(self):
        sweep = run_experiment(self.SWEEP)
        summaries = sweep.summary()
        assert summaries[(1e-8, "tensor")]["n_trials"] == 3


class TestRecordSummary:
    def test_single_record_aggregate(self):
        summary = single_record_aggregate([{"a": 1.0}], {})
        assert isinstance(summary, RecordSummary)
        assert summary["a"] == 1.0
        assert summary.summary() == {"a": 1.0}
        assert isinstance(summary, SummaryProtocol)

    def test_multiple_records_rejected(self):
        with pytest.raises(ValueError, match="n_trials=1"):
            single_record_aggregate([{}, {}], {})
