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


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (subtracts the row max)."""
    x = np.asarray(x, dtype=np.float32)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


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
