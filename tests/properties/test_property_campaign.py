"""Property-based tests of point specs and per-trial seed derivation (hypothesis)."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.exec.spec import ExperimentSpec
from repro.fault.runner import _run_trial_batch, _trial_seed, register_campaign

SETTINGS = dict(max_examples=50, deadline=None)

#: JSON-scalar parameter values (floats restricted to finite round-trippables).
param_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=20),
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=5),
)

campaign_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_-"),
    min_size=1,
    max_size=30,
)

#: Gridless specs: the point-spec form every checkpoint header holds.
specs = st.builds(
    ExperimentSpec,
    campaign=campaign_names,
    n_trials=st.integers(min_value=1, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    params=st.dictionaries(st.text(max_size=15), param_values, max_size=6),
    name=st.text(max_size=20),
)


class TestSpecRoundTrip:
    @given(spec=specs)
    @settings(**SETTINGS)
    def test_dict_round_trip_lossless(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @given(spec=specs)
    @settings(**SETTINGS)
    def test_json_round_trip_lossless(self, spec):
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @given(spec=specs)
    @settings(**SETTINGS)
    def test_to_dict_is_pure(self, spec):
        # Mutating the exported dict (or its nested params) must not leak
        # back into the frozen spec.
        exported = spec.to_dict()
        exported["params"]["__injected__"] = 1
        exported["seed"] = -1
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @given(spec=specs)
    @settings(**SETTINGS)
    def test_json_form_is_canonical(self, spec):
        # Key order is normalised, so equal specs serialise to equal bytes.
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.to_json() == spec.to_json()
        assert json.loads(spec.to_json())["campaign"] == spec.campaign


@register_campaign("test_property_seed_draw")
def _seed_draw_trial(rng, params):
    return {"draw": int(rng.integers(2**63))}


def draws(seed: int, indices) -> list[int]:
    """The runner's per-trial draws of ``indices`` under root ``seed``."""
    spec = {"campaign": "test_property_seed_draw", "seed": seed, "params": {}}
    return [record["draw"] for _, record in _run_trial_batch(spec, list(indices))]


class TestSeedDerivation:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_trials=st.integers(min_value=2, max_value=200),
    )
    @settings(**SETTINGS)
    def test_trial_seeds_unique_within_campaign(self, seed, n_trials):
        assert len(set(draws(seed, range(n_trials)))) == n_trials

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_trials=st.integers(min_value=1, max_value=50),
    )
    @settings(**SETTINGS)
    def test_trial_seeds_stable_across_calls(self, seed, n_trials):
        assert draws(seed, range(n_trials)) == draws(seed, range(n_trials))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_prefix_stability_under_trial_count_growth(self, seed):
        # Growing a campaign keeps the streams of already-run trials
        # unchanged, and a batch derives only the indices it runs: what
        # makes resume-with-extended-spec and any sharding sound.
        long = draws(seed, range(9))
        assert draws(seed, range(5)) == long[:5]
        assert draws(seed, [7, 3]) == [long[7], long[3]]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        indices=st.lists(
            st.integers(min_value=0, max_value=300), min_size=1, max_size=12, unique=True
        ),
    )
    @settings(**SETTINGS)
    def test_any_index_subset_draws_its_spawned_children(self, seed, indices):
        # The documented contract: trial i draws from
        # default_rng(SeedSequence(seed).spawn(n)[i]) for any n > i, whatever
        # else (unsorted, with gaps) shares its batch.
        children = np.random.SeedSequence(seed).spawn(max(indices) + 1)
        expected = [int(np.random.default_rng(children[i]).integers(2**63)) for i in indices]
        assert draws(seed, indices) == expected

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        parent_key=st.lists(st.integers(min_value=0, max_value=50), max_size=3),
        pool_size=st.sampled_from([4, 8]),
        index=st.integers(min_value=0, max_value=300),
    )
    @settings(**SETTINGS)
    def test_trial_seed_is_the_spawned_child_of_any_root(
        self, seed, parent_key, pool_size, index
    ):
        # _trial_seed extends whatever spawn key and pool size its root has,
        # so it stays spawn(n)[i] for a root that is itself a spawned child.
        def root():
            return np.random.SeedSequence(
                seed, spawn_key=tuple(parent_key), pool_size=pool_size
            )

        child = _trial_seed(root(), index)
        spawned = root().spawn(index + 1)[index]
        assert child.spawn_key == spawned.spawn_key
        assert child.pool_size == spawned.pool_size
        assert child.generate_state(4).tolist() == spawned.generate_state(4).tolist()

    def test_late_index_batch_spawns_no_siblings(self, monkeypatch):
        # A batch costs O(its size): trial 10**6 - 1 alone derives its seed
        # without spawning the 10**6 children before it.
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError(f"spawn({n_children}) called")

        index = 10**6 - 1
        expected = int(
            np.random.default_rng(np.random.SeedSequence(5, spawn_key=(index,))).integers(2**63)
        )
        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        assert draws(5, [index]) == [expected]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_trials=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_derived_generators_reproducible(self, seed, n_trials):
        first = draws(seed, range(n_trials))
        assert draws(seed, range(n_trials)) == first
        assert draws(seed + 1, range(n_trials)) != first
