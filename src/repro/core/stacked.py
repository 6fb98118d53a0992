"""The one entry every attention kernel runs through: a stack of trials.

Each scheme implements its kernel once, over ``(trials, ..., seq_len,
head_dim)`` tensors with a leading *trial* axis, and every trial keeps its
own injector and its own :class:`~repro.core.config.FaultToleranceReport`
(see :class:`repro.fault.injector._BatchFaultRouter`).  The kernels keep the
trial axis through every intermediate -- matmuls stay batched over the last
two dims, reductions stay on the last axis -- so a trial's slice is bitwise
the same whatever else is stacked with it.  A scalar ``forward`` is therefore
the same kernel at a trial axis of one (:func:`forward_one_trial`).

The fused kernels (``none``, ``efta``, ``efta_unified``) also stack a row
panel's equal-width column blocks on a *tile* axis.  The products that no
fault site sits between -- GEMM I and its checksums -- run once per panel;
the rest of a tile's body runs once per *span* of tiles
(:func:`run_spans`).  A span covers several tiles only where the router
guarantees that no offer can reach a fault, and only detects: when one of
its checks flags, it is dropped and its tiles re-run one at a time, through
the same code and the existing repair paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FaultToleranceReport
from repro.fault.injector import _BatchFaultRouter
from repro.fault.models import FaultSite

#: The fault sites a fused kernel offers once per tile, in offer order.
TILE_SITES = (
    FaultSite.GEMM_QK,
    FaultSite.REDUCE_MAX,
    FaultSite.SUBTRACT_EXP,
    FaultSite.REDUCE_SUM,
    FaultSite.RESCALE,
    FaultSite.GEMM_PV,
)


def tile_view(x: np.ndarray, n_tiles: int, run: slice) -> np.ndarray:
    """``x[:, run]`` of a ``(trials, seq, d)`` array as ``(trials, n_tiles, width, d)``.

    A view whenever ``x``'s rows are evenly strided, so each tile keeps the
    memory layout of ``x[:, block]``.
    """
    return x[:, run].reshape(x.shape[0], n_tiles, -1, x.shape[-1])


def run_spans(router, row_block: int, first_block: int, n_tiles: int, run_span) -> None:
    """Run a row panel's ``n_tiles`` equal-width tiles, span by span.

    Tile ``t`` is block ``(row_block, first_block + t)``.  Each span is the
    longest run of tiles, from the next one, at which
    :meth:`~repro.fault.injector._BatchFaultRouter.quiet_prefix` guarantees
    that no per-tile offer can reach a fault -- or the next tile alone.
    ``run_span(a, b)`` runs tiles ``a..b-1`` and returns ``False`` when a
    multi-tile span's checks flagged; it must then have changed and recorded
    nothing, and the span's tiles re-run as one-tile spans (which never
    decline), so every repair runs exactly where a tile-by-tile loop runs it.
    """
    a = 0
    while a < n_tiles:
        blocks = [(row_block, first_block + t) for t in range(a, n_tiles)]
        b = a + max(1, router.quiet_prefix(TILE_SITES, blocks))
        if not run_span(a, b):
            for t in range(a, b):
                run_span(t, t + 1)
        a = b


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
