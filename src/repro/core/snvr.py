"""Selective neuron value restriction (SNVR) for the softmax phase (Section 3.4).

The softmax inside the fused kernel decomposes into three operations with
different protection needs:

* **reduce max** (case 1): an erroneous row maximum cancels out of the final
  result because numerator and denominator are corrupted consistently; no
  detection is required.
* **subtract + exponentiate** (case 2): protected by *checksum reuse* -- the
  score block's strided checksum is shifted by ``count * row_max`` and
  exponentiated, turning the strided *sum* relationship into a strided
  *product* relationship that a single verification can check.  Linear errors
  are corrected via the checksums, exponentiation errors by recomputation.
* **reduce sum** (case 3): the running normaliser only scales a whole row, so
  it is range-restricted: it must lie between ``sum_k exp(m_ik - m_i)`` and
  the number of attended positions; out-of-range values are replaced by the
  lower-bound approximation instead of being recomputed.

The traditional restriction baseline (clamping the normalised probabilities)
is also provided for the comparison in Figure 14 (right).
"""

from __future__ import annotations

import numpy as np


def exp_checksum_propagate(
    score_check: np.ndarray,
    row_max: np.ndarray,
    class_counts: np.ndarray,
) -> np.ndarray:
    """Propagate a score-block checksum through subtraction and exponentiation.

    ``score_check[i, c] = sum_l S[i, c + l*stride]`` becomes, after the kernel
    subtracts ``row_max[i]`` from every score and exponentiates,
    ``exp(score_check[i, c] - class_counts[c] * row_max[i])`` which equals the
    *product* of the corresponding probability elements when no error occurred.
    """
    score_check = np.asarray(score_check, dtype=np.float64)
    row_max = np.asarray(row_max, dtype=np.float64)
    counts = np.asarray(class_counts, dtype=np.float64)
    # ``counts * row_max[..., None]`` broadcasts over any leading dims (a
    # stacked trial axis included) and is elementwise identical to the 2D
    # ``counts[None, :] * row_max[:, None]`` form per slice.
    return np.exp(score_check - counts * row_max[..., None])


def strided_products(p_block: np.ndarray, stride: int) -> np.ndarray:
    """Product of every ``stride``-interleaved group of a probability block.

    Returns an array of shape ``(rows, stride)`` whose entry ``(i, c)`` is
    ``prod_l P[i, c + l*stride]`` (missing tail elements contribute 1).
    """
    p = np.asarray(p_block, dtype=np.float64)
    cols = p.shape[-1]
    groups = -(-cols // stride)
    # Leading dims (a stacked trial axis) pass through: the per-group product
    # accumulation is elementwise, so stacked slices match the 2D results.
    out = np.ones(p.shape[:-1] + (stride,), dtype=np.float64)
    for l in range(groups):
        chunk = p[..., l * stride : (l + 1) * stride]
        out[..., : chunk.shape[-1]] *= chunk
    return out


def verify_exp_products(
    p_block: np.ndarray,
    p_check: np.ndarray,
    stride: int,
    rtol: float = 0.25,
    atol: float = 1e-30,
) -> np.ndarray:
    """Compare strided products of ``P`` against the propagated checksum.

    Returns a boolean mask of shape ``(rows, stride)`` marking the stride
    classes whose product deviates from the checksum by more than the
    tolerance -- i.e. the classes containing a GEMM / subtraction /
    exponentiation error (Algorithm 1, line 13).
    """
    prods = strided_products(p_block, stride)
    p_check = np.asarray(p_check, dtype=np.float64)
    deviation = np.abs(prods - p_check)
    threshold = atol + rtol * np.abs(p_check)
    # A NaN/Inf anywhere in the chain (corrupted probability or hijacked
    # maximum) makes the comparison itself non-finite; flag it rather than
    # letting the NaN comparison silently return False.
    return (deviation > threshold) | ~np.isfinite(deviation)


def restrict_rowsum(
    rowsum: np.ndarray,
    lower_bound: np.ndarray,
    upper_bound: float,
) -> tuple[np.ndarray, int]:
    """Range-restrict the softmax normaliser (SNVR case 3).

    Values outside ``[lower_bound, upper_bound]`` are replaced by the
    lower-bound approximation ``sum_k exp(m_ik - m_i)`` (Algorithm 1, lines
    22-24).  Returns the restricted array and the number of rows restored.
    """
    restored, counts = restrict_rowsum_stacked(
        np.asarray(rowsum, dtype=np.float32)[None],
        np.asarray(lower_bound, dtype=np.float32)[None],
        upper_bound,
    )
    return restored[0], int(counts[0])


def restrict_rowsum_stacked(
    rowsum: np.ndarray,
    lower_bound: np.ndarray,
    upper_bound: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Range-restrict a stacked ``(trials, rows)`` normaliser per trial.

    The comparisons and the lower-bound substitution are elementwise, so a
    trial's slice does not depend on the stack.  Returns the restricted
    array and the per-trial restoration counts; :func:`restrict_rowsum` is
    this at a trial axis of one.
    """
    rowsum = np.asarray(rowsum, dtype=np.float32)
    # The theoretical lower bound is strictly positive (the row maximum always
    # contributes exp(0) = 1), so floor it at the smallest normal value: a
    # normaliser driven to exactly zero (e.g. by a corrupted running maximum
    # underflowing every exponential) is always flagged.
    lower = np.maximum(np.asarray(lower_bound, dtype=np.float32), np.finfo(np.float32).tiny)
    bad = (rowsum < lower) | (rowsum > np.float32(upper_bound)) | ~np.isfinite(rowsum)
    counts = bad.reshape(rowsum.shape[0], -1).sum(axis=1)
    if not bad.any():
        return rowsum, counts
    restored = rowsum.copy()
    restored[bad] = lower[bad]
    return restored, counts


def traditional_restriction(
    probs: np.ndarray, low: float = 0.0, high: float = 1.0
) -> tuple[np.ndarray, int]:
    """Baseline neuron-value restriction: clamp the final probabilities.

    This is the "traditional restriction" of Figure 14 (right): it only bounds
    the normalised output to its theoretical range, so a corrupted normaliser
    that keeps values inside ``[0, 1]`` is left uncorrected and the residual
    error spreads widely (0 - 0.15 relative error in the paper).
    """
    probs = np.asarray(probs, dtype=np.float32)
    clipped = np.clip(probs, low, high)
    changed = int(np.count_nonzero(clipped != probs))
    return clipped, changed
