"""Flash-attention style tiled attention (Equations 1-7), unprotected.

This is the single-kernel, O(n) memory formulation that EFTA extends with
fault tolerance.  The outer loop walks blocks of query rows; the inner loop
streams key/value blocks, folding each into the online softmax state.

Two implementations share the entry point: :func:`_flash_single` runs one
``(seq_len, head_dim)`` slice through :class:`OnlineSoftmaxState` (the scalar
oracle), and :func:`_flash_stacked` advances *all* leading (batch, head)
groups through the same tile recurrence with one stacked tensor op per step.
The stacked path performs the identical float32 operations in the identical
order, so its output is bitwise equal to running the oracle per group --
pinned by ``tests/attention/test_standard_and_flash.py``.
"""

from __future__ import annotations

import numpy as np

from repro.attention.softmax import OnlineSoftmaxState
from repro.attention.tiling import partition_blocks
from repro.fp.float16 import FP16Operand, fp16_matmul


def _flash_single(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float,
    block_size: int,
    mixed_precision: bool,
) -> np.ndarray:
    seq_len, head_dim = q.shape
    out = np.empty((seq_len, head_dim), dtype=np.float32)
    for row_blk in partition_blocks(seq_len, block_size):
        q_i = q[row_blk]
        state = OnlineSoftmaxState.initial(q_i.shape[0], head_dim)
        for col_blk in partition_blocks(k.shape[0], block_size):
            k_j = k[col_blk]
            v_j = v[col_blk]
            if mixed_precision:
                scores = fp16_matmul(q_i, k_j.T) * np.float32(scale)
            else:
                scores = (q_i @ k_j.T).astype(np.float32) * np.float32(scale)
            state.update(scores, v_j)
        out[row_blk] = state.finalize()
    return out


def _flash_stacked(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float,
    block_size: int,
    mixed_precision: bool,
) -> np.ndarray:
    """All groups of ``(groups, seq_len, head_dim)`` through the tile loop at once.

    Mirrors :meth:`OnlineSoftmaxState.update` / ``finalize`` step for step with
    a leading group axis; every op is either elementwise, a last-axis
    reduction, or a stacked GEMM, all of which NumPy evaluates identically to
    the per-slice forms.  With ``mixed_precision`` the score GEMM's operands
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
