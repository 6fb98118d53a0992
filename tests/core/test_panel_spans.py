"""Panel stacking: how many tiles a span covers never shows in the results.

The fused kernels (``none``, ``efta``, ``efta_unified``) run a row panel's
tiles in *spans* (:func:`repro.core.stacked.run_spans`): several tiles at
once where the router guarantees no offer can reach a fault, one tile
otherwise.  A spec that is armed at every tile but never fires forces
one-tile spans everywhere, which is the tile-by-tile loop.  So a call with
that spec added to its injector must give bitwise the output, report
counters and injection records of the same call without it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.efta
import repro.core.schemes
from repro.core.config import AttentionConfig
from repro.core.schemes import build_scheme
from repro.core.stacked import TILE_SITES, run_spans
from repro.fault.injector import FaultInjector, _BatchFaultRouter
from repro.fault.models import FaultSite, FaultSpec

FUSED = ("none", "efta", "efta_unified")
COUNTERS = ("detections", "corrections", "recomputations", "restorations", "uncorrectable")
#: Armed at every tile (GEMM I, any block) and never fires.
NEVER = FaultSpec("gemm_qk", bit=12, occurrence=10**9)
#: (seq_len, head_dim, block_size, key rows): 8 full column blocks and a
#: ragged tail per panel; more keys than ``seq_len`` with a one-row last panel.
SHAPES = ((136, 8, 16, 136), (65, 8, 16, 256))
CASES = [None] + [site.value for site in TILE_SITES]


def _counters(report) -> dict:
    return {key: dict(getattr(report, key)) for key in COUNTERS}


@pytest.fixture
def replays(monkeypatch):
    """Count the multi-tile spans that flagged and re-ran tile by tile."""
    count = {"n": 0}

    def counting(router, row_block, first_block, n_tiles, run_span):
        def span(a, b):
            ok = run_span(a, b)
            count["n"] += not ok
            return ok

        run_spans(router, row_block, first_block, n_tiles, span)

    monkeypatch.setattr(repro.core.efta, "run_spans", counting)
    monkeypatch.setattr(repro.core.schemes, "run_spans", counting)
    return count


def _injectors(site, n_trials, extra):
    """One injector per trial: a bit-14 SEU pinned at block (0, 0) at ``site``."""
    injectors = []
    for t in range(n_trials):
        specs = [] if site is None else [FaultSpec(site, block=(0, 0), bit=14, dtype="fp16")]
        injectors.append(FaultInjector(specs=specs + ([NEVER] if extra else []), seed=t))
    return injectors


def _run(attention, q, k, v, injectors):
    if len(injectors) == 1:
        out, report = attention.forward(q[0], k[0], v[0], injectors[0])
        return out[None], [report]
    return attention.forward_batched(q, k, v, _BatchFaultRouter(injectors))


@pytest.mark.parametrize("n_trials", [1, 3])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("scheme", FUSED)
def test_span_length_is_unobservable(scheme, shape, n_trials, replays):
    seq, dim, block, keys = shape
    rng = np.random.default_rng([FUSED.index(scheme), seq, n_trials])
    q = rng.standard_normal((n_trials, seq, dim)).astype(np.float32)
    k, v = (rng.standard_normal((n_trials, keys, dim)).astype(np.float32) for _ in range(2))
    attention = build_scheme(scheme, AttentionConfig(seq, dim, block_size=block))
    for site in CASES:
        spanned = _injectors(site, n_trials, extra=False)
        tiled = _injectors(site, n_trials, extra=True)
        out_a, reports_a = _run(attention, q, k, v, spanned)
        out_b, reports_b = _run(attention, q, k, v, tiled)
        assert np.array_equal(out_a, out_b, equal_nan=True), site
        for t in range(n_trials):
            assert _counters(reports_a[t]) == _counters(reports_b[t]), (site, t)
            # repr compares the NaN / inf values bit-14 flips record.
            assert repr(spanned[t].records) == repr(tiled[t].records), (site, t)
            assert bool(spanned[t].records) == (site is not None), (site, t)
    # The reduce-max flip hijacks a running max, so a later span flags and
    # re-runs; only the unprotected kernel checks nothing.
    assert (replays["n"] > 0) == (scheme != "none")


def test_a_hijacked_running_max_makes_later_spans_replay(replays):
    """A reduce-max flip at tile (0, 0) drives later tiles' checks to flag.

    Small queries keep every row max under 1, so flipping the top exponent
    bit multiplies it by 2**16: every later exponential of that row
    underflows, and the propagated EXP checksum with it.
    """
    seq, dim, block, keys = SHAPES[0]
    rng = np.random.default_rng(3)
    q, k, v = (rng.standard_normal((1, seq, dim)).astype(np.float32) for _ in range(3))
    q *= np.float32(0.1)
    attention = build_scheme("efta", AttentionConfig(seq, dim, block_size=block))
    results = []
    for extra in ([], [NEVER]):
        flip = FaultSpec("reduce_max", block=(0, 0), index=(0,), bit=14, dtype="fp16")
        injector = FaultInjector(specs=[flip] + extra, seed=0)
        out, reports = _run(attention, q, k, v, [injector])
        results.append((out, _counters(reports[0]), repr(injector.records)))
    assert replays["n"] > 0
    assert np.array_equal(results[0][0], results[1][0], equal_nan=True)
    assert results[0][1:] == results[1][1:]


class TestQuietPrefix:
    """``_BatchFaultRouter.quiet_prefix``: the span rule."""

    BLOCKS = [(0, j) for j in range(6)]

    def _prefix(self, *injectors):
        return _BatchFaultRouter(list(injectors)).quiet_prefix(TILE_SITES, self.BLOCKS)

    def test_no_injector_or_a_clean_one_is_quiet_everywhere(self):
        assert self._prefix() == 6
        assert self._prefix(None, FaultInjector.inert()) == 6

    def test_an_unpinned_tile_fault_blocks_every_tile(self):
        assert self._prefix(FaultInjector(specs=[NEVER])) == 0

    def test_a_pinned_fault_blocks_its_own_tile_only(self):
        pinned = FaultInjector(specs=[FaultSpec("rescale", block=(0, 3))])
        assert self._prefix(pinned) == 3
        elsewhere = FaultInjector(specs=[FaultSpec("rescale", block=(1, 3))])
        assert self._prefix(elsewhere) == 6

    def test_faults_at_other_sites_never_block(self):
        for site in ("normalize", "linear", "softmax"):
            assert self._prefix(FaultInjector(specs=[FaultSpec(site)])) == 6

    def test_a_fired_one_shot_fault_unblocks_but_a_persistent_one_does_not(self):
        one_shot = FaultInjector(specs=[FaultSpec("gemm_pv")], seed=0)
        stuck = FaultInjector(specs=[FaultSpec("gemm_pv", fault_model="stuck_at_1")], seed=0)
        for injector in (one_shot, stuck):
            injector.corrupt(FaultSite.GEMM_PV, np.zeros((2, 2), dtype=np.float32), block=(0, 0))
            assert injector.records
        assert self._prefix(one_shot) == 6
        assert self._prefix(stuck) == 0

    def test_the_tightest_trial_sets_the_prefix(self):
        early = FaultInjector(specs=[FaultSpec("gemm_qk", block=(0, 1))])
        late = FaultInjector(specs=[FaultSpec("reduce_sum", block=(0, 4))])
        assert self._prefix(late, early) == 1

    def test_an_object_that_is_not_a_fault_injector_keeps_spans_at_one_tile(self):
        class Counting:
            armed = True

            def corrupt(self, site, array, block=None):
                pass

        class Subclass(FaultInjector):
            pass

        assert self._prefix(Counting()) == 0
        assert self._prefix(Subclass(specs=[FaultSpec("normalize")])) == 0
