"""Traditional operation-level ABFT for GEMM (Huang & Abraham, Equations 8-9).

This is the protection applied by the decoupled baseline of Section 3.1: the
operands are encoded with full-width row/column checksum vectors, the product
is verified by re-reducing it along both axes, and a single corrupted element
is located from the residual ratio and corrected in place.
"""

from __future__ import annotations

import numpy as np

from repro.fp.float16 import FP16Operand, fp16_matmul
from repro.gemm.checksum import (
    ChecksumVerdict,
    encode_column_checksums,
    encode_row_checksums,
    verify_column_checksums,
    verify_row_checksums,
)
from repro.fault.injector import FaultInjector, _BatchFaultRouter
from repro.fault.models import FaultSite


def protected_matmul(
    a: np.ndarray,
    b: np.ndarray,
    scale: float = 1.0,
    injector: FaultInjector | None = None,
    site: FaultSite = FaultSite.GEMM_QK,
    atol: float = 1e-3,
    rtol: float = 0.02,
    mixed_precision: bool = True,
) -> tuple[np.ndarray, ChecksumVerdict]:
    """Compute ``(a @ b) * scale`` with traditional ABFT protection.

    Parameters
    ----------
    a, b:
        2-D operands.
    scale:
        Scalar applied to the product (and, by linearity, to the checksums).
    injector:
        Optional fault injector; the freshly computed product is offered to it
        at ``site`` before verification, modelling a computing-unit fault.
    atol, rtol:
        Verification thresholds (absolute floor + relative to the checksum).
    mixed_precision:
        Use FP16 operands with FP32 accumulation, as the Tensor-Core kernels do.

    Returns
    -------
    (product, verdict):
        The (possibly corrected) product and the merged column/row checksum
        verdict.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("protected_matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    router = _BatchFaultRouter([injector])
    c, verdicts = protected_matmul_stacked(
        a[None], b[None], router, scale, site, atol, rtol, mixed_precision
    )
    return c[0], verdicts[0]


def protected_matmul_stacked(
    a: np.ndarray,
    b: np.ndarray,
    router,
    scale: float = 1.0,
    site: FaultSite = FaultSite.GEMM_QK,
    atol: float = 1e-3,
    rtol: float = 0.02,
    mixed_precision: bool = True,
) -> tuple[np.ndarray, list[ChecksumVerdict]]:
    """:func:`protected_matmul` over a stacked ``(trials, m, k)`` batch.

    The product runs as one batched-last-two-dims matmul (each trial's slice
    does not depend on the stack); the checksum encodings, checksum products
    and the verification run per trial on slice views -- so in-place
    corrections land in the stacked product -- and return one verdict per
    trial.  ``router`` fans the single post-GEMM ``corrupt`` offer out to
    each trial's injector on its slice.  :func:`protected_matmul` is this at
    a trial axis of one.

    With ``mixed_precision`` each operand is rounded to FP16 once
    (:class:`~repro.fp.float16.FP16Operand`) and read by the product and,
    through per-trial views, by its two checksum products.  The checksum
    vectors are encoded from the unrounded operands.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("protected_matmul_stacked expects (trials, m, k) operands")
    if a.shape[-1] != b.shape[-2] or a.shape[0] != b.shape[0]:
        raise ValueError(f"stacked dimensions disagree: {a.shape} @ {b.shape}")

    matmul = fp16_matmul if mixed_precision else lambda x, y: np.matmul(x, y).astype(np.float32)
    a_op, b_op = (FP16Operand(a), FP16Operand(b)) if mixed_precision else (a, b)

    c = matmul(a_op, b_op) * np.float32(scale)
    # The checksum vectors depend on the per-trial operands; encoding and the
    # (1 x k) / (k x 1) checksum products run per trial on slice views,
    # before the corrupt offer (they ride alongside the original GEMM).
    checks = []
    for t in range(a.shape[0]):
        ca1, ca2 = encode_column_checksums(a[t])
        br1, br2 = encode_row_checksums(b[t])
        checks.append(
            (
                matmul(ca1[None, :], b_op[t])[0] * np.float32(scale),
                matmul(ca2[None, :], b_op[t])[0] * np.float32(scale),
                matmul(a_op[t], br1[:, None])[:, 0] * np.float32(scale),
                matmul(a_op[t], br2[:, None])[:, 0] * np.float32(scale),
            )
        )

    router.corrupt(site, c)

    verdicts = []
    for t, (c_col1, c_col2, c_row1, c_row2) in enumerate(checks):
        verdict = verify_column_checksums(c[t], c_col1, c_col2, atol=atol, rtol=rtol)
        verdict.merge(verify_row_checksums(c[t], c_row1, c_row2, atol=atol, rtol=rtol))
        verdicts.append(verdict)
    return c, verdicts
