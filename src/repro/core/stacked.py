"""The one entry every attention kernel runs through: a stack of trials.

Each scheme implements its kernel once, over ``(trials, ..., seq_len,
head_dim)`` tensors with a leading *trial* axis, and every trial keeps its
own injector and its own :class:`~repro.core.config.FaultToleranceReport`
(see :class:`repro.fault.injector._BatchFaultRouter`).  The kernels keep the
trial axis through every intermediate -- matmuls stay batched over the last
two dims, reductions stay on the last axis -- so a trial's slice is bitwise
the same whatever else is stacked with it.  A scalar ``forward`` is therefore
the same kernel at a trial axis of one (:func:`forward_one_trial`).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FaultToleranceReport
from repro.fault.injector import _BatchFaultRouter


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
