"""Block tiling and head reshaping helpers shared by the attention kernels."""

from __future__ import annotations

from typing import Iterator

import numpy as np


def num_blocks(seq_len: int, block_size: int) -> int:
    """Number of blocks needed to cover ``seq_len`` with ``block_size`` (ceil)."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-seq_len // block_size)


def partition_blocks(seq_len: int, block_size: int) -> Iterator[slice]:
    """Yield slices partitioning ``range(seq_len)`` into blocks of ``block_size``."""
    for start in range(0, seq_len, block_size):
        yield slice(start, min(start + block_size, seq_len))


def block_runs(seq_len: int, block_size: int) -> list[tuple[int, int, slice]]:
    """The blocks of :func:`partition_blocks` grouped into runs of equal width.

    Returns ``(first block index, block count, covered slice)`` per run: the
    full blocks first, then the ragged tail block (if any) as a run of one.
    """
    full, tail = divmod(seq_len, block_size)
    runs = []
    if full:
        runs.append((0, full, slice(0, full * block_size)))
    if tail:
        runs.append((full, 1, slice(full * block_size, seq_len)))
    return runs


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """Reshape ``(batch, seq, hidden)`` into ``(batch, heads, seq, head_dim)``."""
    x = np.asarray(x)
    batch, seq, hidden = x.shape
    if hidden % heads:
        raise ValueError(f"hidden dim {hidden} not divisible by heads {heads}")
    head_dim = hidden // heads
    return x.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: ``(batch, heads, seq, head_dim)`` -> ``(batch, seq, hidden)``."""
    x = np.asarray(x)
    batch, heads, seq, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)
