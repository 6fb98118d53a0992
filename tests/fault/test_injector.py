"""Tests for the fault injector, the stacked fault router and BER corruption."""

import numpy as np
import pytest

from repro.fault.injector import FaultInjector, _BatchFaultRouter, inject_bit_errors
from repro.fault.models import FaultSite, FaultSpec, InjectionRecord


class TestFaultSpec:
    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site=FaultSite.GEMM_QK, dtype="fp64")

    def test_negative_occurrence_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site=FaultSite.GEMM_QK, occurrence=-1)


class TestInjectionRecord:
    def test_magnitudes(self):
        rec = InjectionRecord(
            site=FaultSite.GEMM_QK, block=None, index=(0,), bit=3, original=2.0, corrupted=3.0
        )
        assert rec.magnitude == 1.0
        assert rec.relative_magnitude == 0.5

    def test_relative_magnitude_of_zero_original(self):
        rec = InjectionRecord(
            site=FaultSite.GEMM_QK, block=None, index=(0,), bit=3, original=0.0, corrupted=1.0
        )
        assert rec.relative_magnitude == float("inf")


class TestFaultInjector:
    def test_inert_injector_does_nothing(self):
        arr = np.ones(10, dtype=np.float32)
        inj = FaultInjector.inert()
        assert inj.corrupt(FaultSite.GEMM_QK, arr) == []
        np.testing.assert_array_equal(arr, 1.0)
        assert not inj.armed

    def test_single_bit_flip_applied_once(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=0, bit=15, dtype="fp16")
        arr = np.ones((4, 4), dtype=np.float32)
        records = inj.corrupt(FaultSite.GEMM_QK, arr)
        assert len(records) == 1
        assert np.count_nonzero(arr != 1.0) == 1
        # A second offer does not re-apply the fault (SEU model).
        arr2 = np.ones((4, 4), dtype=np.float32)
        assert inj.corrupt(FaultSite.GEMM_QK, arr2) == []
        assert np.all(arr2 == 1.0)
        assert not inj.armed
        assert inj.applied_count == 1

    def test_site_filtering(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_PV, seed=0)
        arr = np.ones(8, dtype=np.float32)
        assert inj.corrupt(FaultSite.GEMM_QK, arr) == []
        assert inj.armed

    def test_block_filtering(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=0, block=(1, 2))
        arr = np.ones(8, dtype=np.float32)
        assert inj.corrupt(FaultSite.GEMM_QK, arr, block=(0, 0)) == []
        assert inj.corrupt(FaultSite.GEMM_QK, arr, block=(1, 2)) != []

    def test_explicit_index_and_bit(self):
        inj = FaultInjector.single_bit_flip(
            FaultSite.GEMM_QK, index=(1, 3), bit=15, dtype="fp16"
        )
        arr = np.ones((2, 4), dtype=np.float32)
        records = inj.corrupt(FaultSite.GEMM_QK, arr)
        assert records[0].index == (1, 3)
        assert arr[1, 3] == -1.0

    def test_occurrence_skips_first_matches(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=0, occurrence=2, bit=15)
        arrays = [np.ones(4, dtype=np.float32) for _ in range(4)]
        hits = [len(inj.corrupt(FaultSite.GEMM_QK, a)) for a in arrays]
        assert hits == [0, 0, 1, 0]

    def test_fp32_representation_flip(self):
        inj = FaultInjector.single_bit_flip(FaultSite.REDUCE_SUM, index=(0,), bit=31, dtype="fp32")
        arr = np.array([5.0], dtype=np.float32)
        inj.corrupt(FaultSite.REDUCE_SUM, arr)
        assert arr[0] == -5.0

    def test_reset_rearms(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=0, bit=15)
        arr = np.ones(4, dtype=np.float32)
        inj.corrupt(FaultSite.GEMM_QK, arr)
        assert not inj.armed
        inj.reset()
        assert inj.armed
        assert inj.applied_count == 0

    def test_reset_reproduces_same_fault(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=42)
        a = np.ones((8, 8), dtype=np.float32)
        inj.corrupt(FaultSite.GEMM_QK, a)
        first = inj.records[0]
        inj.reset()
        b = np.ones((8, 8), dtype=np.float32)
        inj.corrupt(FaultSite.GEMM_QK, b)
        second = inj.records[0]
        assert first.index == second.index
        assert first.bit == second.bit

    def test_multiple_specs(self):
        specs = [
            FaultSpec(site=FaultSite.GEMM_QK, bit=15),
            FaultSpec(site=FaultSite.GEMM_PV, bit=15),
        ]
        inj = FaultInjector(specs=specs, seed=0)
        a = np.ones(4, dtype=np.float32)
        b = np.ones(4, dtype=np.float32)
        inj.corrupt(FaultSite.GEMM_QK, a)
        inj.corrupt(FaultSite.GEMM_PV, b)
        assert inj.applied_count == 2

    def test_wrong_rank_index_rejected(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, index=(1, 2, 3))
        with pytest.raises(ValueError):
            inj.corrupt(FaultSite.GEMM_QK, np.ones((4, 4), dtype=np.float32))

    def test_empty_array_rejected(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_QK)
        with pytest.raises(ValueError):
            inj.corrupt(FaultSite.GEMM_QK, np.empty((0,), dtype=np.float32))

    def test_record_captures_original_and_corrupted(self):
        inj = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, index=(0,), bit=15, dtype="fp16")
        arr = np.array([2.0], dtype=np.float32)
        (record,) = inj.corrupt(FaultSite.GEMM_QK, arr)
        assert record.original == 2.0
        assert record.corrupted == -2.0
        assert record.magnitude == 4.0


class TestInjectBitErrors:
    def test_min_errors_forced(self):
        rng = np.random.default_rng(0)
        arr = np.ones((16, 16), dtype=np.float32)
        records = inject_bit_errors(arr, 0.0, rng, min_errors=3)
        assert len(records) == 3
        assert np.count_nonzero(arr != 1.0) <= 3  # low mantissa flips may round back

    def test_zero_rate_zero_min(self):
        rng = np.random.default_rng(0)
        arr = np.ones((8, 8), dtype=np.float32)
        assert inject_bit_errors(arr, 0.0, rng) == []
        np.testing.assert_array_equal(arr, 1.0)

    def test_rate_one_corrupts_every_element_at_most_once(self):
        rng = np.random.default_rng(0)
        arr = np.ones((4, 4), dtype=np.float32)
        records = inject_bit_errors(arr, 1.0, rng)
        assert len(records) == arr.size
        assert len({r.index for r in records}) == arr.size

    def test_invalid_rate_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            inject_bit_errors(np.ones(4, dtype=np.float32), 1.5, rng)

    def test_expected_count_scales_with_rate(self):
        rng = np.random.default_rng(1)
        arr = np.ones((64, 64), dtype=np.float32)
        low = len(inject_bit_errors(arr.copy(), 1e-4, rng))
        high = len(inject_bit_errors(arr.copy(), 1e-2, rng))
        assert high > low


# --------------------------------------------------------------------------- #
# The stacked fault router
# --------------------------------------------------------------------------- #
LINEAR, QK, PV = FaultSite.LINEAR, FaultSite.GEMM_QK, FaultSite.GEMM_PV
#: (site, block) of each offer, as a kernel would make them.
OFFERS = [
    (LINEAR, None), (QK, (0, 0)), (PV, (0, 0)), (QK, (0, 1)), (PV, (0, 1)),
    (LINEAR, None), (QK, (1, 0)), (PV, (1, 0)), (LINEAR, None), (PV, (1, 1)), (LINEAR, None),
]


def _mixed_site_injectors(seed: int = 0) -> list:
    """A stack mixing sites, block pins, several faults per trial and persistent models."""

    def spec(site, occurrence=0, model="seu", block=None):
        params = {"p": 0.5} if model == "intermittent" else {}
        return FaultSpec(
            site=site, bit=13, occurrence=occurrence, block=block,
            fault_model=model, model_params=params,
        )

    plans = [
        [spec(LINEAR, occurrence=1)],
        [spec(QK, occurrence=1), spec(LINEAR, occurrence=2)],
        None,
        [spec(PV, model="stuck_at_1")],
        [spec(QK, block=(1, 0)), spec(PV, occurrence=1, model="intermittent")],
        [],
        [spec(LINEAR), spec(LINEAR, occurrence=1)],
    ]
    return [
        None if specs is None else FaultInjector(specs=specs, seed=seed + t)
        for t, specs in enumerate(plans)
    ]


def _offer_all(router, injectors, offers=OFFERS) -> np.ndarray:
    stack = np.ones((len(injectors), 3, 5), dtype=np.float32)
    for site, block in offers:
        router.corrupt(site, stack, block)
    return stack


class _Probe:
    """A counting stand-in for an injector, like the transformer fixture's site probe."""

    def __init__(self, log: list, t: int, offers: int = 10**9):
        self.log, self.t, self.left = log, t, offers
        self.records: list = []

    @property
    def armed(self) -> bool:
        return self.left > 0

    def corrupt(self, site, array, block=None):
        self.log.append((self.t, site))
        self.left -= 1


class TestBatchFaultRouter:
    def test_routing_matches_offering_every_injector(self):
        routed = _mixed_site_injectors()
        stack = _offer_all(_BatchFaultRouter(routed), routed)
        # The reference: every injector sees every offer.
        everyone = _mixed_site_injectors()
        reference = np.ones_like(stack)
        for site, block in OFFERS:
            for t, injector in enumerate(everyone):
                if injector is not None:
                    injector.corrupt(site, reference[t], block)
        assert np.array_equal(stack.view(np.uint32), reference.view(np.uint32))
        assert [repr(i and i.records) for i in routed] == [repr(i and i.records) for i in everyone]
        assert sum(len(i.records) for i in routed if i is not None) >= 6

    def test_an_injector_sees_only_its_armed_sites(self, monkeypatch):
        seen = []
        real = FaultInjector.corrupt

        def counting(self, site, array, block=None):
            seen.append((self.seed, site))
            return real(self, site, array, block)

        monkeypatch.setattr(FaultInjector, "corrupt", counting)
        injectors = _mixed_site_injectors(seed=100)
        _offer_all(_BatchFaultRouter(injectors), injectors)
        by_trial = {t: [s for seed, s in seen if seed == 100 + t] for t in range(len(injectors))}
        # One-shot faults leave a site's route once they fired ...
        assert by_trial[0] == [LINEAR, LINEAR]
        assert by_trial[1] == [LINEAR, QK, QK, LINEAR, LINEAR]
        assert by_trial[6] == [LINEAR, LINEAR]
        # ... a persistent one keeps getting its site's offers ...
        assert by_trial[3] == [PV] * 4
        # ... and a fault pinned to a block is offered every tile of its site.
        assert by_trial[4] == [QK, PV, QK, PV, QK, PV, PV]
        assert by_trial[2] == by_trial[5] == []  # fault-free trials

    def test_stand_ins_get_every_offer_in_trial_order(self, monkeypatch):
        log = []
        real = FaultInjector.corrupt

        def logging(self, site, array, block=None):
            log.append((self.seed, site))
            return real(self, site, array, block)

        monkeypatch.setattr(FaultInjector, "corrupt", logging)
        injectors = _mixed_site_injectors()
        injectors[2] = _Probe(log, 2)
        injectors[5] = _Probe(log, 5, offers=3)  # disarms after three offers
        _offer_all(_BatchFaultRouter(injectors), injectors)
        assert [s for t, s in log if t == 2] == [site for site, _ in OFFERS]
        assert [s for t, s in log if t == 5] == [site for site, _ in OFFERS[:3]]
        # Within one offer, trials are served in order.
        first_offer = log[: next(n for n, (_, s) in enumerate(log) if s != LINEAR)]
        assert [t for t, _ in first_offer] == [0, 1, 2, 5, 6]

    def test_a_stand_in_keeps_spans_at_one_tile_while_armed(self):
        probe = _Probe([], 0, offers=1)
        router = _BatchFaultRouter([probe])
        blocks = [(0, 0), (0, 1), (0, 2)]
        assert router.quiet_prefix((QK, PV), blocks) == 0
        router.corrupt(QK, np.ones((1, 2), dtype=np.float32), (0, 0))
        assert router.quiet_prefix((QK, PV), blocks) == len(blocks)
