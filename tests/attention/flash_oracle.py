"""The scalar flash-attention oracle: one ``(seq_len, head_dim)`` slice at a time.

:func:`flash_single` runs the online-softmax recurrence of Equations 1-7
through :class:`OnlineSoftmaxState`, one row block and one column block at
a time.  It is the reference of scheme ``"none"``'s kernel
(:class:`repro.core.schemes.UnprotectedAttention`), which runs the same
float32 operations over row panels, tile spans and a trial axis at once:
the score GEMM with FP16 operands, the softmax and ``P V`` in float32.  The
kernels never use it; the tests compare the kernel against it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.tiling import partition_blocks
from repro.fp.float16 import fp16_matmul


@dataclass
class OnlineSoftmaxState:
    """Running state of the streaming softmax for one block of output rows.

    Attributes
    ----------
    row_max:
        Current running maximum ``m_i`` per row (shape ``(rows,)``).
    row_sum:
        Current running normaliser ``l_i`` per row (shape ``(rows,)``),
        expressed relative to ``row_max``.
    output:
        Un-normalised output accumulator ``O_i`` (shape ``(rows, head_dim)``),
        also expressed relative to ``row_max``.
    block_maxes:
        History of per-iteration local row maxima, needed by SNVR's rowsum
        range restriction (lower bound ``sum_k exp(m_ik - m_ij)``).
    """

    row_max: np.ndarray
    row_sum: np.ndarray
    output: np.ndarray
    block_maxes: list[np.ndarray]

    @classmethod
    def initial(cls, rows: int, head_dim: int) -> "OnlineSoftmaxState":
        """Fresh state: max = -inf, sum = 0, output = 0."""
        return cls(
            row_max=np.full(rows, -np.inf, dtype=np.float32),
            row_sum=np.zeros(rows, dtype=np.float32),
            output=np.zeros((rows, head_dim), dtype=np.float32),
            block_maxes=[],
        )

    def update(self, scores: np.ndarray, value_block: np.ndarray) -> dict[str, np.ndarray]:
        """Fold one score block and its value block into the running state.

        Implements lines 10-20 of Algorithm 1 without any protection: reduce
        max, exponentiate, rescale the previous accumulator, and accumulate
        ``P_ij V_j``.  Returns the intermediates (``probs``, ``scale``,
        ``new_max``, ``local_max``).
        """
        scores = np.asarray(scores, dtype=np.float32)
        local_max = scores.max(axis=1)
        new_max = np.maximum(self.row_max, local_max)
        probs = np.exp(scores - new_max[:, None]).astype(np.float32)
        scale = np.exp(self.row_max - new_max).astype(np.float32)
        scale = np.where(np.isfinite(scale), scale, 0.0).astype(np.float32)
        self.row_sum = scale * self.row_sum + probs.sum(axis=1, dtype=np.float32)
        self.output = scale[:, None] * self.output + probs @ np.asarray(value_block, dtype=np.float32)
        self.row_max = new_max
        self.block_maxes.append(local_max)
        return {"probs": probs, "scale": scale, "new_max": new_max, "local_max": local_max}

    def finalize(self) -> np.ndarray:
        """Normalise the accumulator by the global row sums and return O."""
        denom = np.where(self.row_sum > 0.0, self.row_sum, 1.0)
        return (self.output / denom[:, None]).astype(np.float32)

    def rowsum_lower_bound(self) -> np.ndarray:
        """SNVR lower bound on the final rowsum: ``sum_k exp(m_ik - m_i)``.

        Every block contributes at least ``exp(m_ik - m_i)`` to the final
        normaliser because its row maximum appears in the sum with that scale.
        """
        if not self.block_maxes:
            return np.zeros_like(self.row_sum)
        stacked = np.stack(self.block_maxes, axis=0)
        return np.exp(stacked - self.row_max[None, :]).sum(axis=0).astype(np.float32)


def flash_single(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float, block_size: int
) -> np.ndarray:
    """Flash attention of one ``(seq_len, head_dim)`` slice through the oracle state."""
    seq_len, head_dim = q.shape
    out = np.empty((seq_len, head_dim), dtype=np.float32)
    for row_blk in partition_blocks(seq_len, block_size):
        q_i = q[row_blk]
        state = OnlineSoftmaxState.initial(q_i.shape[0], head_dim)
        for col_blk in partition_blocks(k.shape[0], block_size):
            scores = fp16_matmul(q_i, k[col_blk].T) * np.float32(scale)
            state.update(scores, v[col_blk])
        out[row_blk] = state.finalize()
    return out
