"""The group-by-group strided fold: the order :func:`repro.gemm.checksum._strided_folds` keeps.

:func:`strided_fold` adds the column groups ``S[..., l*stride : (l+1)*stride]``
of ``S`` one at a time, ``l = 0, 1, 2, ...``, into a float64 accumulator that
starts at 0.0, widening each group inside the add.  This is how the kernels
folded a checksum class before the fold became one reduction over a
group-major buffer; the tests compare that kernel against it bit for bit.
"""

from __future__ import annotations

import numpy as np


def strided_fold(s: np.ndarray, stride: int) -> np.ndarray:
    """``fold[..., j] = sum_l S[..., j + l*stride]`` in float64, group by group."""
    s = np.asarray(s)
    fold = np.zeros(s.shape[:-1] + (stride,), dtype=np.float64)
    for start in range(0, s.shape[-1], stride):
        group = s[..., start : start + stride]
        fold[..., : group.shape[-1]] += group
    return fold
