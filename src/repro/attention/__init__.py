"""Attention substrate: softmax primitives, block tiling and standard attention.

The standard O(n^2) attention of Section 2.1 is the correctness oracle.  The
flash-attention style tiled/online formulation (Equations 1-7), whose block
structure the end-to-end fault-tolerant attention (EFTA) reuses, exists once:
as scheme ``"none"``'s kernel, :class:`repro.core.schemes.UnprotectedAttention`.
"""

from repro.attention.softmax import block_softmax, log_sum_exp, stable_softmax
from repro.attention.tiling import num_blocks, partition_blocks, split_heads, merge_heads
from repro.attention.standard import standard_attention

__all__ = [
    "block_softmax",
    "log_sum_exp",
    "stable_softmax",
    "num_blocks",
    "partition_blocks",
    "split_heads",
    "merge_heads",
    "standard_attention",
]
