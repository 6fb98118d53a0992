"""Strided (tensor-checksum) ABFT tailored to the Tensor-Core MMA layout.

Implements the block-level encoding/verification of Section 3.3 used inside
the fused EFTA kernel:

* the key block's transpose is folded along its column dimension at the
  layout's same-thread stride (8), yielding two ``d x 8`` tensor checksums;
* multiplying the query block with those checksums during GEMM I yields the
  score block's ``B x 8`` checksums "for free" (Equations 14-15); the key
  checksums are rounded to FP16 once per key block
  (:meth:`StridedABFT.key_block_checksums`) and reused by every query block
  (:meth:`StridedABFT.score_checksums`);
* the value block is folded along the head dimension the same way, so GEMM II
  accumulates the output checksums alongside the output;
* verification is a strided re-accumulation plus a comparison, and a single
  error per (row, stride class) is located and corrected from the residual
  ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import AttentionConfig
from repro.fp.float16 import FP16Operand, fp16_matmul
from repro.gemm.checksum import (
    ChecksumVerdict,
    encode_strided_row_checksums,
    strided_checksum_flags,
    strided_sums,
    verify_strided_checksums,
    verify_strided_checksums_stacked,
)


def stride_class_counts(cols: int, stride: int) -> np.ndarray:
    """Number of matrix columns folded into each of the ``stride`` checksum classes.

    For ``cols`` divisible by ``stride`` every class receives ``cols/stride``
    contributions; ragged tails leave later classes one short.  The counts are
    needed when a per-row scalar (the running max) is subtracted from every
    element: the checksum must be shifted by ``count * scalar``.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
    counts = np.zeros(stride, dtype=np.float32)
    full, rem = divmod(cols, stride)
    counts[:] = full
    counts[:rem] += 1
    return counts


@dataclass(frozen=True)
class KeyChecksums:
    """A key block's two strided checksums, rounded to FP16 once, and its class counts.

    Built by :meth:`StridedABFT.key_block_checksums` once per key block; every
    query block's :meth:`StridedABFT.score_checksums` reuses it.
    """

    check1: FP16Operand
    check2: FP16Operand
    class_counts: np.ndarray


@dataclass
class BlockChecksums:
    """Checksums attached to one score block during the fused kernel's inner loop."""

    check1: np.ndarray
    check2: np.ndarray
    class_counts: np.ndarray

    @property
    def stride(self) -> int:
        """Checksum width (number of stride classes)."""
        return self.check1.shape[-1]


class StridedABFT:
    """Block-level strided ABFT operations bound to an attention configuration."""

    def __init__(self, config: AttentionConfig):
        self.config = config
        self.stride = config.checksum_stride

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode_key_checksums(self, k_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tensor checksums of ``K_j^T`` (fold the block's rows, i.e. score columns).

        ``k_block`` has shape ``(B_c, d)`` -- or ``(..., B_c, d)`` for a
        stacked trial axis -- and the returned checksums have shape
        ``(..., d, stride)``, satisfying Equations (12)-(13) per slice.
        """
        return encode_strided_row_checksums(
            np.swapaxes(np.asarray(k_block), -1, -2), self.stride
        )

    def encode_value_checksums(self, v_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tensor checksums of ``V_j`` folded along the head dimension.

        ``v_block`` has shape ``(B_c, d)``; the checksums have shape
        ``(B_c, stride)`` so that ``P_ij @ V^{c}`` accumulates the output
        checksums during GEMM II.
        """
        return encode_strided_row_checksums(np.asarray(v_block), self.stride)

    def key_block_checksums(self, k_block: np.ndarray) -> KeyChecksums:
        """Encode ``K_j^T``'s checksums and round them to FP16, once per key block.

        The encoding runs on the unrounded ``(..., B_c, d)`` block, as the
        checksum GEMM's operand has always been produced; only the result is
        rounded, so each of the two checksum products reuses it.  Leading
        axes pass through: the fused kernels encode a run of equal-width key
        blocks at once, as ``(trials, tiles, B_c, d)``, and each tile's
        ``(d, stride)`` checksums are bitwise its own block's.
        """
        check1, check2 = self.encode_key_checksums(k_block)
        counts = stride_class_counts(int(np.asarray(k_block).shape[-2]), self.stride)
        return KeyChecksums(FP16Operand(check1), FP16Operand(check2), counts)

    def score_checksums(
        self, q_block: np.ndarray | FP16Operand, key: KeyChecksums, scale: float
    ) -> BlockChecksums:
        """The score block's checksums: ``Q_i`` times the key block's checksums.

        These are the two checksum products that ride beside GEMM I
        (Equations 14-15).  ``q_block`` may be an :class:`FP16Operand` so the
        fused kernel rounds each query block once for GEMM I and both
        products.  Leading axes broadcast as in ``matmul``: with ``key`` built
        over ``(trials, tiles, ...)`` and ``q_block`` viewed as ``(trials, 1,
        B_r, d)``, one call yields a row panel's checksums for every tile, as
        one BLAS product per tile on the same operands.
        """
        s_c1 = fp16_matmul(q_block, key.check1) * np.float32(scale)
        s_c2 = fp16_matmul(q_block, key.check2) * np.float32(scale)
        return BlockChecksums(check1=s_c1, check2=s_c2, class_counts=key.class_counts)

    def score_block_checksums(
        self, q_block: np.ndarray, k_block: np.ndarray, scale: float
    ) -> BlockChecksums:
        """Encode K and produce the score block's checksums in one call.

        For one-shot callers with a single (query, key) block pair: it is
        :meth:`key_block_checksums` followed by :meth:`score_checksums`.  A
        kernel looping over query blocks hoists the key encoding instead.
        """
        return self.score_checksums(q_block, self.key_block_checksums(k_block), scale)

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #
    def verify_scores(self, s_block: np.ndarray, checksums: BlockChecksums) -> ChecksumVerdict:
        """Verify/correct a score block against its strided checksums (in place)."""
        return verify_strided_checksums(
            s_block,
            checksums.check1,
            checksums.check2,
            stride=self.stride,
            atol=self.config.checksum_atol,
            rtol=self.config.score_checksum_rtol,
        )

    def verify_output(
        self,
        o_block: np.ndarray,
        o_check1: np.ndarray,
        o_check2: np.ndarray,
        rtol: float | None = None,
        magnitude: np.ndarray | None = None,
    ) -> ChecksumVerdict:
        """Verify/correct the output accumulator against its running checksums.

        ``magnitude`` is the per-class accumulated magnitude reference (the
        strided fold of ``|P| |V|`` carried alongside the output checksums);
        without it a near-zero output class would be compared against its own
        cancelled value and FP16 round-off could false-alarm.
        """
        return verify_strided_checksums(
            o_block,
            o_check1,
            o_check2,
            stride=self.stride,
            atol=self.config.checksum_atol,
            rtol=self.config.output_checksum_rtol if rtol is None else rtol,
            magnitude=magnitude,
        )

    def verify_output_stacked(
        self,
        o_block: np.ndarray,
        o_check1: np.ndarray,
        o_check2: np.ndarray,
        rtol: float | None = None,
        magnitude: np.ndarray | None = None,
    ) -> list[ChecksumVerdict]:
        """Per-trial :meth:`verify_output` over a stacked ``(trials, ...)`` block.

        Detection is one stacked pass, and flagged trials correct in place in
        ``o_block`` (see
        :func:`repro.gemm.checksum.verify_strided_checksums_stacked`).
        """
        return verify_strided_checksums_stacked(
            o_block,
            o_check1,
            o_check2,
            stride=self.stride,
            atol=self.config.checksum_atol,
            rtol=self.config.output_checksum_rtol if rtol is None else rtol,
            magnitude=magnitude,
        )

    def output_flags(
        self,
        o_block: np.ndarray,
        o_check1: np.ndarray,
        magnitude: np.ndarray | None = None,
    ) -> np.ndarray:
        """Which trials :meth:`verify_output_stacked` would flag; repairs nothing.

        ``o_block`` may carry a tile axis after the trial axis
        (``(trials, tiles, B_r, d)``): a trial is flagged when any of its
        tiles is.  Same thresholds as :meth:`verify_output_stacked`, through
        the same detection code (:func:`strided_checksum_flags`).
        """
        return strided_checksum_flags(
            o_block,
            o_check1,
            stride=self.stride,
            atol=self.config.checksum_atol,
            rtol=self.config.output_checksum_rtol,
            magnitude=magnitude,
        )[0]

    def residuals(self, s_block: np.ndarray, checksums: BlockChecksums) -> np.ndarray:
        """Raw (unthresholded) checksum residuals of a score block.

        Used by the detection-threshold sweeps of Figure 12: the caller can
        apply any relative threshold to the returned residuals.
        """
        sum1, _ = strided_sums(s_block, self.stride)
        return np.asarray(checksums.check1, dtype=np.float64) - sum1
