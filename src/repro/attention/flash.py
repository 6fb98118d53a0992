"""Flash-attention style tiled attention (Equations 1-7), unprotected.

This is the single-kernel, O(n) memory formulation that EFTA extends with
fault tolerance.  The outer loop walks blocks of query rows; the inner loop
streams key/value blocks, folding each into the online softmax state: a
running row maximum, a running normaliser and an un-normalised output
accumulator, rescaled whenever a block raises the maximum.

:func:`_flash_stacked` advances *all* leading (batch, head) groups through
that tile recurrence with one stacked tensor op per step.  Its output is
bitwise equal to running a scalar oracle per group -- pinned by
``tests/attention/test_standard_and_flash.py`` against the oracle in
``tests/attention/flash_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.attention.tiling import partition_blocks
from repro.fp.float16 import FP16Operand, fp16_matmul


def _flash_stacked(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float,
    block_size: int,
    mixed_precision: bool,
) -> np.ndarray:
    """All groups of ``(groups, seq_len, head_dim)`` through the tile loop at once.

    Every op is either elementwise, a last-axis reduction, or a stacked
    GEMM, all of which NumPy evaluates identically to the per-slice forms.  With ``mixed_precision`` the score GEMM's operands
    are rounded to FP16 once each: ``K^T`` up front (viewed per column block),
    ``Q_i`` per row block.
    """
    groups, seq_len, head_dim = q.shape
    kv_len = k.shape[1]
    k_t = k.transpose(0, 2, 1)
    if mixed_precision:
        k_t = FP16Operand(k_t)
        matmul = fp16_matmul
    else:
        # Operands are float32 at entry, so the product already is too.
        matmul = np.matmul
    out = np.empty((groups, seq_len, head_dim), dtype=np.float32)
    for row_blk in partition_blocks(seq_len, block_size):
        q_i = q[:, row_blk]
        if mixed_precision:
            q_i = FP16Operand(q_i)
        rows = q_i.shape[1]
        row_max = np.full((groups, rows), -np.inf, dtype=np.float32)
        row_sum = np.zeros((groups, rows), dtype=np.float32)
        acc = np.zeros((groups, rows, head_dim), dtype=np.float32)
        for col_blk in partition_blocks(kv_len, block_size):
            v_j = v[:, col_blk]
            scores = matmul(q_i, k_t[..., col_blk]) * np.float32(scale)
            local_max = scores.max(axis=2)
            new_max = np.maximum(row_max, local_max)
            # Everything below stays float32 without casts: the inputs are
            # float32 and the python-float literals do not promote (NEP 50),
            # so spelling out .astype(np.float32) would only copy.
            probs = np.exp(scores - new_max[:, :, None])
            rescale = np.exp(row_max - new_max)
            rescale = np.where(np.isfinite(rescale), rescale, 0.0)
            row_sum = rescale * row_sum + probs.sum(axis=2, dtype=np.float32)
            acc = rescale[:, :, None] * acc + np.matmul(probs, v_j)
            row_max = new_max
        denom = np.where(row_sum > 0.0, row_sum, 1.0)
        out[:, row_blk] = acc / denom[:, :, None]
    return out


def flash_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float | None = None,
    block_size: int = 128,
    mixed_precision: bool = False,
) -> np.ndarray:
    """Tiled exact attention with O(seq_len) extra memory.

    Accepts the same ``(..., seq_len, head_dim)`` layout as
    :func:`repro.attention.standard.standard_attention`; leading dimensions
    are processed independently (one simulated CTA per (batch, head, row
    block), matching Figure 4), advanced together by stacked tensor ops.
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    if q.shape[:-2] != k.shape[:-2] or q.shape[:-2] != v.shape[:-2]:
        raise ValueError("q, k, v must share leading (batch/head) dimensions")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(
            f"k and v must share the sequence dimension: k has {k.shape[-2]} "
            f"rows but v has {v.shape[-2]}"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])

    lead = q.shape[:-2]
    q2 = q.reshape((-1,) + q.shape[-2:])
    k2 = k.reshape((-1,) + k.shape[-2:])
    v2 = v.reshape((-1,) + v.shape[-2:])
    out = _flash_stacked(q2, k2, v2, scale, block_size, mixed_precision)
    return out.reshape(lead + q.shape[-2:])
