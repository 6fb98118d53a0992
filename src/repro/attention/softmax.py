"""Numerically stable softmax primitives.

The fused attention kernels never materialise the full score matrix: each
keeps, per output row, a running maximum ``m``, a running normaliser ``l``
and an un-normalised output accumulator ``O`` that are rescaled whenever a
new block raises the maximum (Equations 1-7).  Each kernel spells that
recurrence out over its stacked tiles; this module holds the row-wise
primitives around it.
"""

from __future__ import annotations

import numpy as np


def stable_softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (subtracts the row max).

    ``out``, a C-contiguous float32 array of ``x``'s shape, receives the
    result and is returned; for a C-contiguous ``x`` every step runs in it.
    """
    x = np.asarray(x, dtype=np.float32)
    m = np.max(x, axis=axis, keepdims=True)
    if out is None or not x.flags.c_contiguous:
        # A fresh result follows x's memory order, and the row sums with it.
        e = np.exp(x - m)
        result = e / np.sum(e, axis=axis, keepdims=True)
        if out is None:
            return result
        out[...] = result
        return out
    e = np.exp(np.subtract(x, m, out=out), out=out)
    return np.divide(e, np.sum(e, axis=axis, keepdims=True), out=e)


def block_softmax(scores: np.ndarray, row_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local (block) softmax numerator and row-sum given an externally supplied max.

    Returns ``(P, rowsum)`` where ``P = exp(scores - row_max[:, None])`` and
    ``rowsum = P.sum(axis=1)``; the caller owns the global normalisation.
    """
    scores = np.asarray(scores, dtype=np.float32)
    p = np.exp(scores - row_max[:, None])
    return p, p.sum(axis=1, dtype=np.float32)


def log_sum_exp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-sum-exp reduction (used by property tests as an oracle)."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))).squeeze(axis)
