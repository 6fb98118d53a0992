"""One scratch arena per thread for kernel temporaries, taken in stack-like frames.

The attention kernels make the same large temporaries on every call: score
blocks, probabilities, their FP16 rounding, the GEMM-II products and, in the
decoupled baseline, whole ``seq x keys`` matrices.  As fresh NumPy arrays
they come back from the allocator as fresh pages (glibc returns a freed
region to the system and faults it in again on the next call), so the
kernels take them from one block instead::

    with frame():
        s = take((rows, cols), np.float32)
        np.matmul(a, b, out=s)
        ...

:func:`take` hands out C-contiguous, 64-byte-aligned views of the block,
each after the last, and leaving a frame gives back everything taken inside
it.  The block is regrown only when the outermost frame exits, to the
deepest stack seen; until then a take past its end returns a fresh array.
Outside any frame :func:`take` always returns a fresh array, so a function
that takes its result stays safe to call from anywhere.

The rule: take only inside a frame, and never return, store or wrap in a
longer-lived object (an :class:`~repro.fp.float16.FP16Operand` kept past
the frame, say) anything taken -- the next frame hands the same bytes out
again.  ``tests/core/test_scratch.py`` pins that calls do not depend on what
ran before them on the thread and that no result shares the block.

The block keeps the largest working set a thread has needed for the
thread's life: a seq-4096 ``decoupled`` call, for example, keeps its
``seq^2`` scratch (3.25 float32 ``seq x keys`` matrices, about 210 MB, and
one more once a DMR retry has run) until the thread ends.
"""

from __future__ import annotations

import math
import threading

import numpy as np

#: Byte alignment of every view :func:`take` returns from the block.
ALIGNMENT = 64


class _Arena(threading.local):
    """The calling thread's block and its stack."""

    def __init__(self) -> None:
        self.block = np.empty(0, dtype=np.uint8)
        #: Bytes in use, open frames and the deepest ``top`` seen.
        self.top = 0
        self.depth = 0
        self.peak = 0

    def regrow(self) -> None:
        # Views taken from the old block keep it alive until they are gone.
        block = np.empty(self.peak + ALIGNMENT, dtype=np.uint8)
        start = -block.ctypes.data % ALIGNMENT
        self.block = block[start : start + self.peak]


_arena = _Arena()


class frame:
    """A stack frame of the thread's arena: what is taken inside is given back on exit."""

    __slots__ = ("_mark",)

    def __enter__(self) -> "frame":
        arena = _arena
        self._mark = arena.top
        arena.depth += 1
        return self

    def __exit__(self, *exc) -> None:
        arena = _arena
        arena.depth -= 1
        arena.top = self._mark
        if not arena.depth and arena.peak > arena.block.size:
            arena.regrow()


def take(shape, dtype=np.float32) -> np.ndarray:
    """An uninitialised ``shape`` array, from the arena inside a frame.

    Inside a frame it is a C-contiguous, 64-byte-aligned view of the
    thread's block, valid until the innermost open frame exits; outside any
    frame, or past the block's end, a fresh array.
    """
    arena = _arena
    if not arena.depth:
        return np.empty(shape, dtype)
    dtype = np.dtype(dtype)
    count = shape if isinstance(shape, (int, np.integer)) else math.prod(shape)
    start = arena.top
    top = arena.top = start + -(-count * dtype.itemsize // ALIGNMENT) * ALIGNMENT
    if top > arena.peak:
        arena.peak = top
    if top > arena.block.size:
        return np.empty(shape, dtype)
    return np.ndarray(shape, dtype, buffer=arena.block, offset=start)
