"""Panel and tile spans: how many panels or tiles a span covers never shows.

The fused kernels (``none``, ``efta``, ``efta_unified``) run a head's row
panels in *panel spans* (:func:`repro.core.stacked.run_panels`) and each
panel's tiles in *tile spans* (:func:`repro.core.stacked.run_spans`):
several at once where the router guarantees no offer can reach a fault, one
otherwise.  A spec that is armed at every tile but never fires forces spans
of one panel and one tile everywhere, which is the panel-by-panel,
tile-by-tile loop.  So a call with that spec added to its injector must give
bitwise the output, report counters and injection records of the same call
without it, whatever the panel-span budget.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

import repro.core.efta
import repro.core.schemes
import repro.core.stacked
from repro.core.config import AttentionConfig
from repro.core.efta import _rowsum_lower_bounds
from repro.core.schemes import build_scheme
from repro.core.stacked import TILE_SITES, run_panels, run_spans
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
def spans(monkeypatch):
    """Count multi-panel spans and the quiet spans that flagged and re-ran.

    ``tile_replays`` counts multi-tile spans replayed tile by tile, and
    ``panel_replays`` multi-panel spans replayed panel by panel (a flag in
    one of their tile spans included).
    """
    count = Counter()

    def counting_panels(router, n_trials, seq_len, n_keys, block_size, run_panel_span):
        def span(p, r, quiet):
            ok = run_panel_span(p, r, quiet)
            count["panel_spans"] += r - p > 1
            count["panel_replays"] += not ok
            return ok

        run_panels(router, n_trials, seq_len, n_keys, block_size, span)

    def counting_tiles(router, row_block, first_block, n_tiles, run_span, quiet=False):
        def span(a, b, quiet_span):
            ok = run_span(a, b, quiet_span)
            count["tile_replays"] += not (ok or quiet)
            return ok

        return run_spans(router, row_block, first_block, n_tiles, span, quiet)

    for module in (repro.core.efta, repro.core.schemes):
        monkeypatch.setattr(module, "run_panels", counting_panels)
        monkeypatch.setattr(module, "run_spans", counting_tiles)
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
def test_span_length_is_unobservable(scheme, shape, n_trials, spans):
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
    assert (spans["tile_replays"] > 0) == (scheme != "none")
    assert spans["panel_spans"] > 0


def test_a_hijacked_running_max_makes_later_spans_replay(spans):
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
    assert spans["tile_replays"] > 0
    assert np.array_equal(results[0][0], results[1][0], equal_nan=True)
    assert results[0][1:] == results[1][1:]


#: Panel-span budgets, in panels of one stacked score block: spans of one
#: panel, of at most two, and as long as the router allows.
BUDGETS = (1, 2, None)


def _plans(n_panels: int, n_cols: int) -> dict:
    """Per-trial spec lists; ``mid`` pins a fault inside the head, away from its ends."""
    mid = (n_panels // 2, n_cols // 2)

    def seu(site, block=mid, bit=14):
        block = (block[0], -1) if site == "normalize" else block
        return FaultSpec(site, block=block, bit=bit, dtype="fp16")

    plans = {"clean": [[]]}
    for site in CASES[1:] + ["normalize"]:
        plans[f"{site}-mid"] = [[seu(site)]]
    plans["stuck-gemm_pv-mid"] = [[FaultSpec("gemm_pv", block=mid, fault_model="stuck_at_1")]]
    plans["two-site"] = [[seu("gemm_qk", (1, 0), 13), seu("reduce_sum", bit=13)]]
    last = (n_panels - 1, n_cols - 1)
    plans["mixed-stack"] = [
        [seu("subtract_exp")],
        [],
        [FaultSpec("rescale", block=last, fault_model="stuck_at_1"), seu("gemm_qk", (0, 1))],
    ]
    return plans


def _forward(attention, q, k, v, specs, extra=()):
    injectors = [FaultInjector(specs=list(s) + list(extra), seed=t) for t, s in enumerate(specs)]
    out, reports = _run(attention, q[: len(specs)], k[: len(specs)], v[: len(specs)], injectors)
    return out, [_counters(r) for r in reports], [repr(inj.records) for inj in injectors]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("scheme", FUSED)
def test_panel_span_budget_is_unobservable(scheme, shape, spans, monkeypatch):
    """Spans of one panel, of two and unlimited all equal the panel-by-panel loop."""
    seq, dim, block, keys = shape
    rng = np.random.default_rng([FUSED.index(scheme), seq, 7])
    q = rng.standard_normal((3, seq, dim)).astype(np.float32)
    k, v = (rng.standard_normal((3, keys, dim)).astype(np.float32) for _ in range(2))
    attention = build_scheme(scheme, AttentionConfig(seq, dim, block_size=block))
    plans = _plans(-(-seq // block), -(-keys // block))
    for name, specs in plans.items():
        expected = _forward(attention, q, k, v, specs, extra=[NEVER])
        assert expected[2][0] != "[]" or name == "clean", name
        for budget in BUDGETS:
            elements = 1 << 40 if budget is None else budget * len(specs) * block * keys
            monkeypatch.setattr(repro.core.stacked, "PANEL_SPAN_ELEMENTS", elements)
            spans.clear()
            out, counters, records = _forward(attention, q, k, v, specs)
            assert np.array_equal(out, expected[0], equal_nan=True), (name, budget)
            assert counters == expected[1], (name, budget)
            assert records == expected[2], (name, budget)
            if budget == 1 or name == "clean":
                assert (spans["panel_spans"] > 0) == (budget != 1), (name, budget)


def test_quiet_panel_spans_that_flag_replay_panel_by_panel(spans):
    """Clean but wide scores underflow EXP checksums; flagged panel spans re-run.

    A stride class whose propagated checksum underflows to zero is flagged
    for the linear re-check, which records a GEMM-I residual it cannot
    locate.  So quiet spans decline, and their panels re-run one at a time
    and record it as the panel-by-panel loop does.
    """
    seq, dim, block, keys = SHAPES[0]
    rng = np.random.default_rng(11)
    q, k, v = (rng.standard_normal((1, seq, dim)).astype(np.float32) for _ in range(3))
    q *= np.float32(100.0)
    for scheme in ("efta", "efta_unified"):
        attention = build_scheme(scheme, AttentionConfig(seq, dim, block_size=block))
        expected = _forward(attention, q, k, v, [[]], extra=[NEVER])
        assert any(expected[1][0].values()), scheme  # the re-check records a false alarm
        spans.clear()
        out, counters, records = _forward(attention, q, k, v, [[]])
        assert spans["panel_spans"] > 0 and spans["panel_replays"] > 0, scheme
        assert np.array_equal(out, expected[0], equal_nan=True), scheme
        assert (counters, records) == expected[1:], scheme


@pytest.mark.parametrize("scheme", FUSED)
def test_a_quiet_span_makes_no_corrupt_call(scheme, monkeypatch):
    """Only the one-tile span at a persistent fault's pinned block offers to it.

    The fault stays armed at ``gemm_qk`` for the whole call, so every
    ``gemm_qk`` offer reaches its injector; the quiet panel and tile spans
    around its block make none.  The stacked clean trial is never offered.
    """
    calls = []
    original = FaultInjector.corrupt

    def recording(self, site, array, block=None):
        calls.append((site, block))
        return original(self, site, array, block)

    monkeypatch.setattr(FaultInjector, "corrupt", recording)
    seq, dim, block = 64, 8, 16
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((2, seq, dim)).astype(np.float32) for _ in range(3))
    attention = build_scheme(scheme, AttentionConfig(seq, dim, block_size=block))
    stuck = FaultSpec("gemm_qk", block=(3, 3), bit=12, fault_model="stuck_at_1")
    injectors = [FaultInjector(specs=[stuck], seed=0), None]
    attention.forward_batched(q, k, v, _BatchFaultRouter(injectors))
    assert injectors[0].records
    assert calls == [(FaultSite.GEMM_QK, (3, 3))]


def _per_tile_lower_bounds(history, local_max, row_max):
    """The stack-and-sum bound of every span tile, one tile at a time."""
    bounds = []
    for t in range(row_max.shape[1]):
        stacked = np.stack(list(history) + [local_max[:, u] for u in range(t + 1)], axis=0)
        bounds.append(np.exp(stacked - row_max[:, t][None, ...]).sum(axis=0).astype(np.float32))
    return np.stack(bounds, axis=1)


@pytest.mark.parametrize("n_tiles", [1, 2, 8])
@pytest.mark.parametrize("n_history", [0, 3, 9])
@pytest.mark.parametrize("lead_rows", [(1, 1), (1, 5), (3, 1), (3, 5)], ids=str)
def test_one_pass_lower_bounds_equal_the_per_tile_sums(lead_rows, n_history, n_tiles):
    """Same terms, same order: bitwise, with -inf starts and ties.

    A lone ``(trial, row)`` -- a one-row last panel at a trial axis of one --
    is summed pairwise by NumPy once it has eight or more terms, which the
    nine-block history reaches.
    """
    lead, rows = lead_rows
    rng = np.random.default_rng([lead, rows, n_history, n_tiles])
    maxes = rng.standard_normal((lead, n_history + n_tiles, rows)).astype(np.float32)
    maxes *= np.float32(4.0)
    if n_history:
        maxes[:, 0] = -np.inf  # a block of -inf scores starts the panel
    if maxes.shape[1] > 1:
        maxes[:, -1] = maxes[:, :-1].max(axis=1)  # ties the running max
    running = np.maximum.accumulate(maxes, axis=1)
    history = [maxes[:, u] for u in range(n_history)]
    local_max = maxes[:, n_history:]
    row_max = running[:, n_history:]
    expected = _per_tile_lower_bounds(history, local_max, row_max)
    got = _rowsum_lower_bounds(np.moveaxis(maxes, 1, 0).copy(), row_max)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


def test_masked_lower_bound_terms_raise_no_warning():
    """A later block's term would overflow float32: it is never computed.

    The running max jumps by 100 at the span's last tile, so that block's
    term for the earlier tiles, ``exp(100 - 0)``, overflows; every tile's own
    terms are finite or underflow quietly.
    """
    block_maxes = np.array([[[-3.0, -1.0]], [[0.0, 0.0]], [[100.0, 50.0]]], dtype=np.float32)
    row_max = np.maximum.accumulate(np.moveaxis(block_maxes, 0, 1), axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = _rowsum_lower_bounds(block_maxes, row_max)
    assert np.isfinite(bounds).all()


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
