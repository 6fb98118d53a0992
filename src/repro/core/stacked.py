"""The one entry every attention kernel runs through: a stack of trials.

Each scheme implements its kernel once, over ``(trials, ..., seq_len,
head_dim)`` tensors with a leading *trial* axis, and every trial keeps its
own injector and its own :class:`~repro.core.config.FaultToleranceReport`
(see :class:`repro.fault.injector._BatchFaultRouter`).  The kernels keep the
trial axis through every intermediate -- matmuls stay batched over the last
two dims, reductions stay on the last axis -- so a trial's slice is bitwise
the same whatever else is stacked with it.  A scalar ``forward`` is therefore
the same kernel at a trial axis of one (:func:`forward_one_trial`).

The fused kernels (``none``, ``efta``, ``efta_unified``) run a head's row
panels in *panel spans* (:func:`run_panels`) and each panel's equal-width
column blocks in *tile spans* (:func:`run_spans`).  A panel span stacks
equal-height row panels after the trial axis: GEMM I and its checksums
broadcast over ``(trials, panels, tiles, ...)``, one BLAS call per trial,
panel and tile on the 2-D operands a lone panel uses, and the rest of the
body runs on a merged ``(trials x panels)`` leading axis
(:func:`merge_panels`).  A tile span stacks a panel's tiles on a tile axis.
A span covers several panels or tiles only where the router guarantees that
no offer can reach a fault.  Such a *quiet* span makes no offer and only
detects: when one of its checks flags, it is dropped and its panels or tiles
re-run one at a time, through the same code and the existing repair paths.
So the span lengths never show in the outputs, the report counters or the
injection records (``tests/core/test_panel_spans.py``).

Each panel span and each tile span runs in a frame of the thread's scratch
arena (:mod:`repro.scratch`): the kernels take their span-sized temporaries
there, and a tile span copies the accumulators it commits into the panel
span's own.
"""

from __future__ import annotations

import numpy as np

from repro.attention.tiling import num_blocks
from repro.core.config import FaultToleranceReport
from repro.fault.injector import _BatchFaultRouter
from repro.fault.models import FaultSite
from repro.fp.float16 import FP16Operand
from repro.scratch import frame, take

#: The fault sites a fused kernel offers once per tile, in offer order.
TILE_SITES = (
    FaultSite.GEMM_QK,
    FaultSite.REDUCE_MAX,
    FaultSite.SUBTRACT_EXP,
    FaultSite.REDUCE_SUM,
    FaultSite.RESCALE,
    FaultSite.GEMM_PV,
)
#: The sites a panel span must be clear of: every tile site at blocks
#: ``(i, j)`` and the normalisation at block ``(i, -1)``.
PANEL_SITES = TILE_SITES + (FaultSite.NORMALIZE,)
#: Float32 elements a panel span's stacked score block may hold, over the
#: whole trial stack: four 64-row panels at 512 keys and one trial.
PANEL_SPAN_ELEMENTS = 1 << 17


def block_view(x: np.ndarray, n_blocks: int, run: slice) -> np.ndarray:
    """``x[:, run]`` of a ``(trials, seq, d)`` array as ``(trials, n_blocks, width, d)``.

    A view whenever ``x``'s rows are evenly strided, so each block keeps the
    memory layout of ``x[:, block]``.  The kernels view runs of key/value
    tiles and a panel span's query panels this way.
    """
    return x[:, run].reshape(x.shape[0], n_blocks, -1, x.shape[-1])


def round_operand(x: np.ndarray) -> FP16Operand:
    """``FP16Operand(x)``, rounded into a taken buffer when ``x`` is C-contiguous.

    A C-contiguous ``x`` rounds into a C-contiguous array either way, so the
    operand keeps its memory order (which picks the BLAS call); any other
    layout rounds into a fresh array in ``x``'s order.  The operand must not
    outlive the caller's frame.
    """
    if x.flags.c_contiguous:
        return FP16Operand(x, out=take(x.shape))
    return FP16Operand(x)


def take_product(a, b) -> np.ndarray:
    """A taken float32 buffer for the batched product ``a @ b`` of two operands of equal rank."""
    lead = tuple(map(max, a.shape[:-2], b.shape[:-2]))
    return take(lead + (a.shape[-2], b.shape[-1]))


def merge_panels(x: np.ndarray) -> np.ndarray:
    """``(trials, panels, ...)`` as ``(trials * panels, ...)``: the body's leading axis."""
    return x.reshape((-1,) + x.shape[2:])


def split_panels(x: np.ndarray, n_panels: int) -> np.ndarray:
    """The inverse of :func:`merge_panels`, for the GEMM-II products."""
    return x.reshape((-1, n_panels) + x.shape[1:])


def run_panels(router, n_trials: int, seq_len: int, n_keys: int, block_size: int,
               run_panel_span) -> None:
    """Run a head's row panels, span by span.

    Panel ``i`` holds query rows ``i * block_size`` up to the next block.  Each
    span is the longest run of equal-height panels, from the next one, whose
    stacked score block (``n_trials`` x panels x height x ``n_keys``) fits
    :data:`PANEL_SPAN_ELEMENTS` (four 64-row panels at 512 keys and one
    trial) and at which
    :meth:`~repro.fault.injector._BatchFaultRouter.quiet_prefix` clears
    every site of :data:`PANEL_SITES` -- or the next panel alone.
    ``run_panel_span(p, r, quiet)`` runs panels ``p..r-1`` in a scratch
    frame of its own (:mod:`repro.scratch`).  A span of several panels is
    quiet: it returns ``False`` when a check flagged, having changed and
    recorded nothing, and its panels then re-run as spans of one, which are
    not quiet and never decline.
    """
    n_panels = num_blocks(seq_len, block_size)
    full = seq_len // block_size
    n_cols = num_blocks(n_keys, block_size)
    cap = PANEL_SPAN_ELEMENTS // max(1, n_trials * block_size * n_keys)
    p = 0
    while p < n_panels:
        r = min(p + cap, full)
        if r - p > 1:
            blocks = [(i, j) for i in range(p, r) for j in (*range(n_cols), -1)]
            r = p + router.quiet_prefix(PANEL_SITES, blocks) // (n_cols + 1)
        r = max(r, p + 1)
        if not _in_frame(run_panel_span, p, r, r - p > 1):
            for i in range(p, r):
                _in_frame(run_panel_span, i, i + 1, False)
        p = r


def run_spans(router, row_block: int, first_block: int, n_tiles: int, run_span,
              quiet: bool = False) -> bool:
    """Run a row panel's ``n_tiles`` equal-width tiles, span by span.

    Tile ``t`` is block ``(row_block, first_block + t)``.  ``run_span(a, b,
    quiet)`` runs tiles ``a..b-1`` in a scratch frame of its own; a quiet
    span makes no offer, only detects, and returns ``False`` when a check
    flagged, having changed and recorded nothing.

    In a quiet panel span (``quiet``) every tile is clear, so all of them run
    as one quiet span and its verdict is returned for the panel span to act
    on.  Otherwise each span is the longest run of tiles, from the next one,
    at which :meth:`~repro.fault.injector._BatchFaultRouter.quiet_prefix`
    clears every site of :data:`TILE_SITES` -- quiet when it holds several
    tiles -- or the next tile alone.  A flagged span's tiles re-run as
    one-tile spans (which never decline), so every repair runs exactly where
    a tile-by-tile loop runs it, and this returns ``True``.
    """
    if quiet:
        return _in_frame(run_span, 0, n_tiles, True)
    a = 0
    while a < n_tiles:
        blocks = [(row_block, first_block + t) for t in range(a, n_tiles)]
        b = a + max(1, router.quiet_prefix(TILE_SITES, blocks))
        if not _in_frame(run_span, a, b, b - a > 1):
            for t in range(a, b):
                _in_frame(run_span, t, t + 1, False)
        a = b
    return True


def _in_frame(run, first: int, stop: int, quiet: bool) -> bool:
    """``run(first, stop, quiet)`` in a scratch frame of its own."""
    with frame():
        return run(first, stop, quiet)


def forward_stacked(group_kernel, q, k, v, router):
    """Validate a trial stack and run ``group_kernel`` per (batch, head) group.

    ``group_kernel(q_g, k_g, v_g, router, reports)`` receives one group's
    ``(trials, seq, head_dim)`` slices and returns its output.  Returns
    ``(out, reports)`` with one report per trial; the reports' ``injected``
    lists are left empty (the caller owns the per-trial injectors).
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    if q.shape[:-2] != k.shape[:-2] or q.shape[:-2] != v.shape[:-2]:
        raise ValueError("q, k, v must share leading dimensions")
    if q.shape[-1] != k.shape[-1]:
        raise ValueError("q and k must share the head dimension")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(
            f"k and v must share the sequence dimension: k has {k.shape[-2]} "
            f"rows but v has {v.shape[-2]}"
        )
    n_trials = q.shape[0]
    q2 = q.reshape((n_trials, -1) + q.shape[-2:])
    k2 = k.reshape((n_trials, -1) + k.shape[-2:])
    v2 = v.reshape((n_trials, -1) + v.shape[-2:])
    reports = [FaultToleranceReport() for _ in range(n_trials)]
    out = np.empty_like(q2)
    for g in range(q2.shape[1]):
        out[:, g] = group_kernel(q2[:, g], k2[:, g], v2[:, g], router, reports)
    return out.reshape(q.shape), reports


def forward_one_trial(forward_batched, q, k, v, injector):
    """``forward`` of a scheme: its ``forward_batched`` at a trial axis of one.

    ``q``/``k``/``v`` are ``(..., seq_len, head_dim)``; ``injector`` (or
    ``None``) receives every ``corrupt`` offer of the lone trial.  Returns
    ``(out, report)`` with the faults this call applied in ``report.injected``.
    """
    router = _BatchFaultRouter([injector])
    already_applied = injector.applied_count if injector is not None else 0
    out, reports = forward_batched(
        np.asarray(q, dtype=np.float32)[None],
        np.asarray(k, dtype=np.float32)[None],
        np.asarray(v, dtype=np.float32)[None],
        router,
    )
    report = reports[0]
    if injector is not None:
        report.injected.extend(injector.records[already_applied:])
    return out[0], report
