"""The shared stacked kernel entry: input checks and stack invariance.

Every scheme's attention kernel exists once, over a leading trial axis, and
``forward`` is that kernel at a trial axis of one.  These tests pin that a
trial's output, report counters and injection records do not depend on what
else is stacked with it -- on ragged shapes, several heads and persistent
fault models -- and that malformed inputs are refused the same way by every
scheme.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AttentionConfig
from repro.core.schemes import build_scheme
from repro.fault.injector import FaultInjector, _BatchFaultRouter
from repro.fault.models import FaultSpec

SCHEMES = ("none", "efta", "efta_unified", "decoupled")
_FUSED_SITES = (
    "gemm_qk", "reduce_max", "subtract_exp", "reduce_sum", "rescale", "gemm_pv", "normalize"
)
#: Fault sites each scheme's kernel offers to the injector.
SITES = {
    "none": _FUSED_SITES,
    "efta": _FUSED_SITES,
    "efta_unified": _FUSED_SITES,
    "decoupled": ("gemm_qk", "softmax", "gemm_pv"),
}
#: Trials 0 and 1 always carry a persistent model; the rest draw from all.
MODELS = {
    "stuck_at_1": {},
    "intermittent": {"p": 0.5},
    "seu": {},
    "multi_bit_burst": {"burst_len": 3},
    "row_line": {},
}
#: Ragged: 40 rows are two full blocks of 16 and one of 8.
CONFIG = AttentionConfig(seq_len=40, head_dim=8, block_size=16)
#: Four full column blocks and a ragged one per panel.  The fused schemes'
#: faults are pinned to one block each here, so a stack that mixes quiet and
#: armed trials runs multi-tile spans around the armed tiles.
WIDE = AttentionConfig(seq_len=72, head_dim=8, block_size=16)
HEADS = 2


def _counters(report) -> dict:
    return {
        key: dict(getattr(report, key))
        for key in ("detections", "corrections", "recomputations", "restorations", "uncorrectable")
    }


def _plan(
    scheme: str, n_trials: int, rng: np.random.Generator, config: AttentionConfig = CONFIG
) -> list[tuple[FaultSpec, int]]:
    """One (spec, injector seed) per trial, on a site the scheme executes."""
    names = list(MODELS)
    plans = []
    for t in range(n_trials):
        model = names[t] if t < 2 else names[int(rng.integers(len(names)))]
        site = SITES[scheme][int(rng.integers(len(SITES[scheme])))]
        block = None
        if config is WIDE and scheme != "decoupled":
            row, col = (int(x) for x in rng.integers(config.n_blocks, size=2))
            block = (row, -1 if site == "normalize" else col)
        spec = FaultSpec(
            site=site,
            block=block,
            bit=int(rng.integers(8, 15)),
            dtype="fp16",
            occurrence=int(rng.integers(HEADS)),  # each site runs once a head or more
            fault_model=model,
            model_params=MODELS[model],
        )
        plans.append((spec, int(rng.integers(2**31))))
    return plans


@pytest.mark.parametrize("n_trials", [2, 3, 4, 5])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_each_stacked_trial_equals_its_lone_forward(scheme, n_trials):
    _check_stack_invariance(scheme, n_trials, CONFIG)


@pytest.mark.parametrize("n_trials", [2, 3, 5])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stack_invariance_across_multi_tile_spans(scheme, n_trials):
    _check_stack_invariance(scheme, n_trials, WIDE)


def _check_stack_invariance(scheme: str, n_trials: int, config: AttentionConfig) -> None:
    rng = np.random.default_rng([SCHEMES.index(scheme), n_trials])
    shape = (n_trials, HEADS, config.seq_len, config.head_dim)
    q, k, v = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
    plans = _plan(scheme, n_trials, rng, config)
    attention = build_scheme(scheme, config)
    stacked_injectors = [FaultInjector(specs=[spec], seed=seed) for spec, seed in plans]
    out, reports = attention.forward_batched(q, k, v, _BatchFaultRouter(stacked_injectors))

    assert out.shape == shape
    assert len(reports) == n_trials
    fired = 0
    for t, (spec, seed) in enumerate(plans):
        lone_injector = FaultInjector(specs=[spec], seed=seed)
        lone_out, lone_report = attention.forward(q[t], k[t], v[t], lone_injector)
        assert np.array_equal(out[t], lone_out, equal_nan=True), f"trial {t} output"
        assert _counters(reports[t]) == _counters(lone_report), f"trial {t} counters"
        assert repr(stacked_injectors[t].records) == repr(lone_injector.records)
        assert repr(lone_report.injected) == repr(lone_injector.records)
        fired += bool(lone_injector.records)
    # Every planned fault lands, so the kernels are exercised, not only passed.
    assert fired == n_trials


@pytest.mark.parametrize("entry", ["forward", "forward_batched"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_value_rows_must_match_key_rows(scheme, entry):
    rng = np.random.default_rng(0)
    q = rng.standard_normal((HEADS, CONFIG.seq_len, CONFIG.head_dim)).astype(np.float32)
    k = rng.standard_normal(q.shape).astype(np.float32)
    v = rng.standard_normal((HEADS, CONFIG.seq_len + 16, CONFIG.head_dim)).astype(np.float32)
    attention = build_scheme(scheme, CONFIG)
    with pytest.raises(ValueError, match="k and v must share the sequence dimension"):
        if entry == "forward":
            attention.forward(q, k, v)
        else:
            attention.forward_batched(q[None], k[None], v[None], _BatchFaultRouter([]))
