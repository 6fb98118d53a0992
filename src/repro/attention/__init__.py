"""Attention substrate: softmax primitives, standard and flash-style attention.

These are the *unprotected* reference algorithms of Section 2.1: the standard
O(n^2) attention used as a correctness oracle and the flash-attention style
tiled/online formulation (Equations 1-7) whose block structure the end-to-end
fault-tolerant attention (EFTA) reuses.
"""

from repro.attention.softmax import block_softmax, log_sum_exp, stable_softmax
from repro.attention.tiling import num_blocks, partition_blocks, split_heads, merge_heads
from repro.attention.standard import standard_attention
from repro.attention.flash import flash_attention

__all__ = [
    "block_softmax",
    "log_sum_exp",
    "stable_softmax",
    "num_blocks",
    "partition_blocks",
    "split_heads",
    "merge_heads",
    "standard_attention",
    "flash_attention",
]
