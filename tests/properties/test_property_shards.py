"""Property-based tests of shard merge/round-trip invariants (hypothesis).

The distributed executor leans entirely on :class:`TrialRecordSet` shard
semantics: any partition of a campaign's trials into shards, arriving in any
order, possibly with (identical) overlaps, must merge back to the full set
-- and conflicting overlaps must be refused, never silently resolved.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.results import TrialRecordSet
from repro.exec.spec import ExperimentSpec

SETTINGS = dict(max_examples=60, deadline=None)


def _spec(n_trials: int) -> ExperimentSpec:
    return ExperimentSpec(
        campaign="shard_property", n_trials=n_trials, seed=3, params={"k": 1}
    )


def _record(index: int) -> dict:
    """A deterministic stand-in for trial ``index``'s record."""
    return {"trial_value": index * 10 + 1, "tag": f"r{index}"}


@st.composite
def sharded_campaigns(draw):
    """A campaign plus an arbitrary partition of its trials into shards.

    Returns ``(n_trials, shards)`` where ``shards`` is a list of disjoint
    index lists covering ``range(n_trials)``, each internally shuffled (out
    of trial order) and the shard list itself in arbitrary arrival order.
    """
    n_trials = draw(st.integers(min_value=1, max_value=40))
    n_shards = draw(st.integers(min_value=1, max_value=6))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_shards - 1),
            min_size=n_trials,
            max_size=n_trials,
        )
    )
    shards = [[] for _ in range(n_shards)]
    for index, shard in enumerate(assignment):
        shards[shard].append(index)
    shards = [draw(st.permutations(s)) for s in shards if s]
    return n_trials, draw(st.permutations(shards))


class TestMerge:
    @given(data=sharded_campaigns())
    @settings(**SETTINGS)
    def test_any_partition_merges_to_the_full_set(self, data):
        n_trials, shards = data
        spec = _spec(n_trials)
        merged = TrialRecordSet(spec=spec)
        for indices in shards:
            shard = TrialRecordSet(spec=spec)
            for index in indices:  # out-of-order arrival within the shard
                shard.add(index, _record(index))
            merged = merged.merge(shard)
        assert merged.complete
        assert merged.records == {i: _record(i) for i in range(n_trials)}

    @given(data=sharded_campaigns())
    @settings(**SETTINGS)
    def test_merge_is_order_independent_and_canonical(self, data):
        n_trials, shards = data
        spec = _spec(n_trials)
        sets = []
        for ordering in (shards, list(reversed(shards))):
            merged = TrialRecordSet(spec=spec)
            for indices in ordering:
                shard = TrialRecordSet(
                    spec=spec, records={i: _record(i) for i in indices}
                )
                merged = merged.merge(shard)
            sets.append(merged)
        assert sets[0].records == sets[1].records
        # The canonical JSONL bytes are identical however the shards arrived.
        assert sets[0].to_jsonl() == sets[1].to_jsonl()

    @given(data=sharded_campaigns())
    @settings(**SETTINGS)
    def test_identical_overlap_merges_conflicting_overlap_refused(self, data):
        n_trials, shards = data
        spec = _spec(n_trials)
        full = TrialRecordSet(
            spec=spec, records={i: _record(i) for i in range(n_trials)}
        )
        overlap_index = shards[0][0]
        shard = TrialRecordSet(
            spec=spec, records={i: _record(i) for i in shards[0]}
        )
        # Identical overlapping records are fine (idempotent re-delivery)...
        assert full.merge(shard).records == full.records
        # ...but a disagreeing record means foreign shards: refused loudly.
        conflicting = TrialRecordSet(
            spec=spec, records={overlap_index: {"trial_value": -1}}
        )
        with pytest.raises(ValueError, match="disagree"):
            full.merge(conflicting)

    @given(n_trials=st.integers(min_value=1, max_value=30))
    @settings(**SETTINGS)
    def test_foreign_spec_refused(self, n_trials):
        mine = TrialRecordSet(spec=_spec(n_trials))
        other_spec = ExperimentSpec(
            campaign="shard_property", n_trials=n_trials, seed=4, params={"k": 1}
        )
        with pytest.raises(ValueError, match="specs differ"):
            mine.merge(TrialRecordSet(spec=other_spec))


class TestShardRoundTrip:
    @given(data=sharded_campaigns())
    @settings(**SETTINGS)
    def test_every_shard_survives_jsonl_round_trip(self, data):
        n_trials, shards = data
        spec = _spec(n_trials)
        merged = TrialRecordSet(spec=spec)
        for indices in shards:
            shard = TrialRecordSet(
                spec=spec, records={i: _record(i) for i in indices}
            )
            revived = TrialRecordSet.from_jsonl(shard.to_jsonl())
            assert revived.records == shard.records
            assert revived.spec.to_dict() == spec.to_dict()
            merged = merged.merge(revived)
        assert merged.complete

    @given(data=sharded_campaigns())
    @settings(**SETTINGS)
    def test_partial_set_reports_missing_indices(self, data):
        n_trials, shards = data
        spec = _spec(n_trials)
        first = TrialRecordSet(
            spec=spec, records={i: _record(i) for i in shards[0]}
        )
        missing = set(first.missing())
        assert missing == set(range(n_trials)) - set(shards[0])
        assert first.complete == (not missing)
