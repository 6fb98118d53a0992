"""End-to-end fault tolerant attention (EFTA), Algorithm 1 of the paper.

The whole attention computation -- both GEMMs, the online softmax, the
rescaling and the final normalisation -- runs as one fused pass over
key/value blocks, with the hybrid protection scheme threaded through it:

* GEMM I, the max subtraction and the exponentiation are protected by the
  strided tensor checksum, reused across the three steps (checksum reuse);
* the reduce-max needs no protection (its error cancels, SNVR case 1);
* the reduce-sum is range-restricted (SNVR case 3);
* GEMM II, the rescale and the normalisation are protected by the output
  tensor checksums accumulated alongside the output.

This class implements the *per-iteration verification* variant ("EFTA" in
Tables 1 and 2).  :class:`repro.core.efta_optimized.EFTAttentionOptimized`
derives the unified-verification variant from it.

The fused kernel exists once, over a leading *trial* axis
(:meth:`EFTAttention.forward_batched`, see :mod:`repro.core.stacked`);
:meth:`EFTAttention.forward` is that kernel at a trial axis of one.  Within
a row panel it runs the column blocks' tiles as *spans*: several tiles at
once where no fault can land, detecting only, and one tile at a time
wherever a fault can land or a check flags.

Known limitation (shared with the paper's design): a reduce-max fault is not
*corrected* -- its effect cancels between numerator and denominator (SNVR
case 1) as long as the exponentials stay in range.  A corruption large enough
to underflow every exponential of a row zeroes that row's accumulator; the
rowsum restriction flags it (the normaliser falls below its theoretical lower
bound) but the design provides no recomputation path for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.attention.tiling import block_runs, partition_blocks
from repro.core.config import AttentionConfig, FaultToleranceReport
from repro.core.snvr import exp_checksum_propagate, restrict_rowsum_stacked, verify_exp_products
from repro.core.stacked import forward_one_trial, forward_stacked, run_spans, tile_view
from repro.core.strided_abft import BlockChecksums, KeyChecksums, StridedABFT
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite
from repro.fp.float16 import FP16Operand, fp16_matmul
from repro.hardware.costmodel import AttentionCostModel, AttentionWorkload, CostBreakdown
from repro.hardware.specs import A100_PCIE_40GB, GPUSpec

#: Fraction of the accumulated magnitude |P| |V| used as the output
#: verification's round-off floor.  FP16 accumulation noise is ~5e-4 of the
#: accumulated magnitude; 0.04 * output_checksum_rtol (0.05) puts the floor at
#: 2e-3 of it -- above round-off, below any consequential fault.
_OUTPUT_MAGNITUDE_FLOOR = 0.04


def _record_stacked_verdicts(stage: str, verdicts, reports) -> None:
    """Copy one per-trial verdict list into the matching per-trial reports."""
    for report, verdict in zip(reports, verdicts):
        report.record_detection(stage, verdict.detected)
        report.record_correction(stage, verdict.corrected)
        report.record_uncorrectable(stage, verdict.uncorrectable)


class EFTAttention:
    """End-to-end fault tolerant attention with per-iteration verification."""

    #: Whether verification of GEMM II / rowsum is deferred to the end of the
    #: row-block loop (the unified-verification optimisation of Section 3.4).
    unified_verification: bool = False

    def __init__(self, config: AttentionConfig, spec: GPUSpec = A100_PCIE_40GB):
        self.config = config
        self.spec = spec
        self.abft = StridedABFT(config)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        injector: FaultInjector | None = None,
    ) -> tuple[np.ndarray, FaultToleranceReport]:
        """Protected attention over ``(..., seq_len, head_dim)`` tensors.

        The stacked kernel of :meth:`forward_batched` at a trial axis of one.
        """
        return forward_one_trial(self.forward_batched, q, k, v, injector)

    __call__ = forward

    def forward_batched(self, q, k, v, router):
        """Protected attention over a stack of trials: one more leading axis.

        ``q``/``k``/``v`` carry a leading *trial* axis; ``router`` fans each
        ``corrupt`` offer out to every trial's own injector on its slice.  The
        tile recurrence, the checksum propagation and the verification all
        keep the trial axis (batched-last-two-dims matmuls, last-axis
        reductions), so every per-trial slice of every intermediate -- and the
        per-trial report counters -- do not depend on what else is stacked.
        Verification *detection* runs stacked; only flagged trials take the
        repair path.

        Returns ``(out, reports)`` with one report per trial.  The reports'
        ``injected`` lists are left empty (the caller owns the per-trial
        injectors and their records).
        """
        return forward_stacked(self._forward_group, q, k, v, router)

    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        """Simulated (roofline) cost of EFTA for a full multi-head workload."""
        workload = AttentionWorkload(
            batch=batch,
            heads=heads,
            seq_len=self.config.seq_len,
            head_dim=self.config.head_dim,
            block_size=self.config.block_size,
        )
        model = AttentionCostModel(workload, self.spec)
        return model.efta_breakdown(
            qk_protection="strided",
            softmax_protection="snvr",
            pv_protection="strided",
            unified_verification=self.unified_verification,
        )

    # ------------------------------------------------------------------ #
    # Fused kernel for one (batch, head) group, over the trial stack
    # ------------------------------------------------------------------ #
    def _forward_group(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        router,
        reports: list[FaultToleranceReport],
    ) -> np.ndarray:
        """Algorithm 1 on ``(trials, seq, head_dim)`` operands, panel by panel.

        Stack-invariance rules: the trial axis is never flattened into a
        GEMM's row dimension (a fused 2D GEMM can pick a different kernel
        blocking and drift in the last bits); reductions stay on the last
        axis; every trial's injector sees the offer sequence of a lone run.

        Panel stacking: each row panel ``Q_i`` stacks its equal-width column
        blocks on a tile axis (``(trials, tiles, ...)``; a ragged tail block
        is a run of its own).  GEMM I and its two checksum products run once
        per panel and run (no fault site sits between them); the rest of the
        tile body runs once per *span* (:func:`repro.core.stacked.run_spans`,
        :meth:`_span`).  Every stacked op is elementwise, a last-axis
        reduction, the running max, or a batched GEMM on each tile's own 2-D
        operands in the layout a lone tile has, so values are bitwise those
        of a tile-by-tile loop.

        Round-once rule: every GEMM operand is rounded to FP16 once, where it
        is produced, and reused by each product that reads it (an
        :class:`~repro.fp.float16.FP16Operand`), as the fused kernel's MMAs
        reuse a loaded tile.  Before the row loop, per run of equal-width
        blocks: ``K^T`` and ``V``, the key checksums and ``V``'s three
        checksums, rounded from ``(trials, tiles, ...)`` views.  Per row
        panel: ``Q_i``.  Per span: ``P``, after any EXP-stage repair.
        Rounding keeps each view's memory order, and NumPy runs one BLAS call
        per trial and tile on the same values in the same order, so the
        products are bitwise those of rounding inside every call.
        """
        cfg = self.config
        scale = np.float32(cfg.effective_scale)
        trials, seq_len, head_dim = q.shape
        stride = cfg.checksum_stride
        out = np.empty((trials, seq_len, head_dim), dtype=np.float32)

        runs = []
        for first, n_tiles, cols in block_runs(k.shape[1], cfg.block_size):
            k_r = tile_view(k, n_tiles, cols)
            v_r = tile_view(v, n_tiles, cols)
            v_c1, v_c2 = self.abft.encode_value_checksums(v_r)
            v_abs_c1 = self.abft.encode_value_checksums(np.abs(v_r))[0]
            runs.append(_KeyValueRun(
                first=first,
                n_tiles=n_tiles,
                stop=cols.stop,
                k_t=FP16Operand(np.swapaxes(k_r, -1, -2)),
                key_chk=self.abft.key_block_checksums(k_r),
                values=tuple(FP16Operand(x) for x in (v_r, v_c1, v_c2, v_abs_c1)),
            ))

        for i, row_blk in enumerate(partition_blocks(seq_len, cfg.block_size)):
            q_i = FP16Operand(q[:, row_blk])[:, None]
            rows = q_i.shape[2]
            panel = _Panel(
                row_max=np.full((trials, rows), -np.inf, dtype=np.float32),
                row_sum=np.zeros((trials, rows), dtype=np.float32),
                acc=np.zeros((trials, rows, head_dim), dtype=np.float32),
                acc_c1=np.zeros((trials, rows, stride), dtype=np.float32),
                acc_c2=np.zeros((trials, rows, stride), dtype=np.float32),
                acc_mag=np.zeros((trials, rows, stride), dtype=np.float32),
                block_maxes=[],
            )
            for run in runs:
                score_chk = self.abft.score_checksums(q_i, run.key_chk, scale)
                scores = fp16_matmul(q_i, run.k_t) * scale
                span = partial(self._span, i, run, scores, score_chk, panel, router, reports)
                run_spans(router, i, run.first, run.n_tiles, span)

            row_sum, counts = self._restrict_rowsum_stacked(
                panel.row_sum, panel.block_maxes, panel.row_max, k.shape[1]
            )
            _record_restorations(counts, reports)

            denom = np.where(row_sum > 0.0, row_sum, 1.0).astype(np.float32)
            o_block = panel.acc / denom[..., None]
            router.corrupt(FaultSite.NORMALIZE, o_block, block=(i, -1))
            acc_c1 = panel.acc_c1 / denom[..., None]
            acc_c2 = panel.acc_c2 / denom[..., None]

            verdicts = self.abft.verify_output_stacked(
                o_block, acc_c1, acc_c2,
                magnitude=_OUTPUT_MAGNITUDE_FLOOR * panel.acc_mag / denom[..., None],
            )
            _record_stacked_verdicts("output", verdicts, reports)

            out[:, row_blk] = o_block
        return out

    def _span(
        self,
        i: int,
        run: "_KeyValueRun",
        scores: np.ndarray,
        score_chk: BlockChecksums,
        panel: "_Panel",
        router,
        reports: list[FaultToleranceReport],
        a: int,
        b: int,
    ) -> bool:
        """Tiles ``a..b-1`` of ``run`` in row panel ``i``: one span.

        Once per span: every ``corrupt`` offer (one call per tile and site),
        ``exp``, the EXP-stage checksum propagation and product check, the
        rescale factors, the row sums, one stacked ``P V`` with its three
        checksum products and, for per-iteration verification, the output
        checksum detection.  The running max is one ``np.maximum.accumulate``
        over the tile axis (bitwise the chained ``np.maximum``); the row sum
        (with the per-tile rowsum restriction) and the accumulators are
        sequential loops over the tiles.

        A one-tile span repairs what its checks flag, in the tile loop's
        order.  A multi-tile span only detects: when a check flags for any
        trial it returns ``False`` before touching ``panel`` or ``reports``.
        Its offers could reach no fault (see
        :meth:`~repro.fault.injector._BatchFaultRouter.quiet_prefix`), so
        nothing else has changed either.
        """
        cfg = self.config
        multi = b - a > 1
        blocks = [(i, run.first + t) for t in range(a, b)]
        s = scores[:, a:b]
        for t, block in enumerate(blocks):
            router.corrupt(FaultSite.GEMM_QK, s[:, t], block=block)

        local_max = s.max(axis=-1)
        # maxes[:, 0] is the running max before the span, maxes[:, t + 1]
        # after its tile t.  A REDUCE_MAX fault can only land in a one-tile
        # span, after which no tile of the span reads the running max.
        maxes = np.concatenate((panel.row_max[:, None], local_max), axis=1)
        np.maximum.accumulate(maxes, axis=1, out=maxes)
        for t, block in enumerate(blocks):
            router.corrupt(FaultSite.REDUCE_MAX, maxes[:, t + 1], block=block)
        new_max = maxes[:, 1:]

        probs = np.exp(s - new_max[..., None])
        for t, block in enumerate(blocks):
            router.corrupt(FaultSite.SUBTRACT_EXP, probs[:, t], block=block)

        check1 = score_chk.check1[:, a:b]
        flagged = self._exp_stage_flags(probs, new_max, check1, score_chk.class_counts)
        if flagged.any():
            if multi:
                return False
            tile_chk = BlockChecksums(
                check1=check1[:, 0],
                check2=score_chk.check2[:, a],
                class_counts=score_chk.class_counts,
            )
            self._repair_exp_stage(
                s[:, 0], probs[:, 0], maxes[:, 0], new_max[:, 0], local_max[:, 0],
                tile_chk, flagged, reports,
            )

        prev_max = maxes[:, :-1]
        rescale = np.where(np.isfinite(prev_max), np.exp(prev_max - new_max), np.float32(0.0))
        tile_sums = probs.sum(axis=-1, dtype=np.float32)
        p = FP16Operand(probs)
        pv, pv_c1, pv_c2, pv_mag = (fp16_matmul(p, x[:, a:b]) for x in run.values)

        row_sum = panel.row_sum
        acc, acc_c1, acc_c2, acc_mag = panel.acc, panel.acc_c1, panel.acc_c2, panel.acc_mag
        block_maxes = list(panel.block_maxes)
        history = []
        for t, block in enumerate(blocks):
            r = rescale[:, t]
            row_sum = r * row_sum + tile_sums[:, t]
            router.corrupt(FaultSite.REDUCE_SUM, row_sum, block=block)
            block_maxes.append(local_max[:, t])
            if not self.unified_verification:
                attended = min((block[1] + 1) * cfg.block_size, run.stop)
                row_sum, counts = self._restrict_rowsum_stacked(
                    row_sum, block_maxes, new_max[:, t], attended
                )
                if counts.any():
                    if multi:
                        return False
                    _record_restorations(counts, reports)

            r = r[..., None]
            acc_scaled = r * acc
            router.corrupt(FaultSite.RESCALE, acc_scaled, block=block)
            acc = acc_scaled + pv[:, t]
            router.corrupt(FaultSite.GEMM_PV, acc, block=block)
            acc_c1 = r * acc_c1 + pv_c1[:, t]
            acc_c2 = r * acc_c2 + pv_c2[:, t]
            acc_mag = r * acc_mag + pv_mag[:, t]
            if self.unified_verification:
                continue
            if multi:
                history.append((acc, acc_c1, acc_mag))
            else:
                verdicts = self.abft.verify_output_stacked(
                    acc, acc_c1, acc_c2, magnitude=_OUTPUT_MAGNITUDE_FLOOR * acc_mag
                )
                _record_stacked_verdicts("gemm_pv", verdicts, reports)
        if history:
            o, o_c1, o_mag = (np.stack(x, axis=1) for x in zip(*history))
            if self.abft.output_flags(o, o_c1, magnitude=_OUTPUT_MAGNITUDE_FLOOR * o_mag).any():
                return False

        panel.row_max = maxes[:, -1]
        panel.row_sum = row_sum
        panel.block_maxes = block_maxes
        panel.acc, panel.acc_c1, panel.acc_c2, panel.acc_mag = acc, acc_c1, acc_c2, acc_mag
        return True

    # ------------------------------------------------------------------ #
    # Protection helpers
    # ------------------------------------------------------------------ #
    def _verify_exp_stage(
        self,
        scores: np.ndarray,
        probs: np.ndarray,
        prev_max: np.ndarray,
        new_max: np.ndarray,
        local_max: np.ndarray,
        score_chk,
        report: FaultToleranceReport,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unified verification of GEMM I, the subtraction and the EXP (one trial).

        The score checksum is propagated through the same subtraction and
        exponentiation; a mismatch between the strided products of ``probs``
        and the propagated checksum flags an error.  Linear errors (GEMM /
        subtraction) are corrected via the strided checksums on the score
        block; residual mismatches are attributed to the exponentiation and
        recomputed (Algorithm 1, lines 13-16).

        One subtlety the product check alone cannot see: a corrupted score so
        large that it hijacks the running maximum drives both the propagated
        checksum and the strided products to zero, making the comparison
        degenerate.  Stride classes whose propagated checksum underflowed are
        therefore re-verified against the *linear* score checksum, and when a
        correction lands the maximum and the exponentials are recomputed from
        the repaired scores.

        Returns the (possibly repaired) probabilities, running maximum and
        local maximum.
        """
        cfg = self.config
        stride = cfg.checksum_stride
        p_check = exp_checksum_propagate(score_chk.check1, new_max, score_chk.class_counts)
        bad = verify_exp_products(
            probs, p_check, stride, rtol=cfg.exp_product_rtol, atol=cfg.exp_product_atol
        )
        degenerate = p_check == 0.0
        if not bad.any() and not degenerate.any():
            return probs, new_max, local_max

        if bad.any():
            report.record_detection("exp_product", int(bad.sum()))

        # Attempt linear correction on the score block first (this also covers
        # the degenerate classes where the product comparison is meaningless).
        verdict = self.abft.verify_scores(scores, score_chk)
        if verdict.corrected:
            if not bad.any():
                report.record_detection("gemm_qk", verdict.corrected)
            report.record_correction("gemm_qk", verdict.corrected)
            # The corrupted scores may have polluted the reduce-max; recompute
            # the maximum and the exponentials from the repaired block.
            local_max = scores.max(axis=1)
            new_max = np.maximum(prev_max, local_max)
            probs = np.exp(scores - new_max[:, None]).astype(np.float32)
            p_check = exp_checksum_propagate(score_chk.check1, new_max, score_chk.class_counts)
        report.record_uncorrectable("gemm_qk", verdict.uncorrectable)

        # Anything still inconsistent is an exponentiation error: recompute.
        still_bad = verify_exp_products(
            probs, p_check, stride, rtol=cfg.exp_product_rtol, atol=cfg.exp_product_atol
        )
        if still_bad.any():
            rows, classes = np.nonzero(still_bad)
            for r, c in zip(rows, classes):
                cols = np.arange(c, scores.shape[1], stride)
                probs[r, cols] = np.exp(scores[r, cols] - new_max[r])
            report.record_recomputation("exp", int(len(rows)))
        return probs, new_max, local_max

    def _exp_stage_flags(
        self,
        probs: np.ndarray,
        new_max: np.ndarray,
        check1: np.ndarray,
        class_counts: np.ndarray,
    ) -> np.ndarray:
        """Which trials the EXP/GEMM-I check flags, over any tiles stacked after the trial axis.

        The propagated checksum and the strided-product comparison are
        elementwise, so one pass covers every trial and tile.  A trial is
        flagged when a stride class's product deviates or its propagated
        checksum underflowed to zero (the degenerate case
        :meth:`_verify_exp_stage` re-checks linearly).
        """
        cfg = self.config
        p_check = exp_checksum_propagate(check1, new_max, class_counts)
        bad = verify_exp_products(
            probs, p_check, cfg.checksum_stride,
            rtol=cfg.exp_product_rtol, atol=cfg.exp_product_atol,
        )
        return (bad | (p_check == 0.0)).reshape(probs.shape[0], -1).any(axis=1)

    def _repair_exp_stage(
        self,
        scores: np.ndarray,
        probs: np.ndarray,
        prev_max: np.ndarray,
        new_max: np.ndarray,
        local_max: np.ndarray,
        score_chk: BlockChecksums,
        flagged: np.ndarray,
        reports: list[FaultToleranceReport],
    ) -> None:
        """Run :meth:`_verify_exp_stage` for each flagged trial of one tile, in place.

        Each flagged trial works on slice *views* of the stacked
        ``(trials, ...)`` arrays, so the in-place score correction and the
        max/probs recomputation land in them and the bookkeeping in that
        trial's report.  Unflagged trials are left untouched.
        """
        for t in np.nonzero(flagged)[0]:
            chk_t = BlockChecksums(
                check1=score_chk.check1[t],
                check2=score_chk.check2[t],
                class_counts=score_chk.class_counts,
            )
            p_t, nm_t, lm_t = self._verify_exp_stage(
                scores[t], probs[t], prev_max[t], new_max[t], local_max[t], chk_t,
                reports[t],
            )
            probs[t] = p_t
            new_max[t] = nm_t
            local_max[t] = lm_t

    def _restrict_rowsum_stacked(
        self,
        row_sum: np.ndarray,
        block_maxes: list[np.ndarray],
        row_max: np.ndarray,
        attended_positions: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """SNVR case 3 over the trial stack: ``(restricted, per-trial counts)``.

        The normaliser is a sum of one exponential at most 1 per key position
        attended so far, so ``attended_positions`` -- not the configured
        sequence length, which the key count may exceed -- bounds it above.
        ``row_sum`` itself is never modified; the caller records the counts.
        """
        stacked = np.stack(block_maxes, axis=0)
        lower = np.exp(stacked - row_max[None, ...]).sum(axis=0).astype(np.float32)
        return restrict_rowsum_stacked(row_sum, lower, float(attended_positions))


def _record_restorations(counts: np.ndarray, reports: list[FaultToleranceReport]) -> None:
    """Record per-trial rowsum restorations (each one is also a detection)."""
    for report, count in zip(reports, counts):
        n_restored = int(count)
        if n_restored:
            report.record_detection("rowsum", n_restored)
            report.record_restoration("rowsum", n_restored)


@dataclass(frozen=True)
class _KeyValueRun:
    """A run of equal-width key/value blocks, stacked on a tile axis and rounded once.

    ``first`` is the run's first column-block index and ``stop`` the key
    position it ends at; ``values`` holds ``V`` and its checksums ``c1``,
    ``c2`` and the ``c1`` fold of ``|V|`` (which sizes the output
    threshold), each ``(trials, tiles, B_c, ...)``.
    """

    first: int
    n_tiles: int
    stop: int
    k_t: FP16Operand
    key_chk: KeyChecksums
    values: tuple[FP16Operand, FP16Operand, FP16Operand, FP16Operand]


@dataclass
class _Panel:
    """A row panel's running state: what a committed span advances."""

    row_max: np.ndarray
    row_sum: np.ndarray
    acc: np.ndarray
    acc_c1: np.ndarray
    acc_c2: np.ndarray
    acc_mag: np.ndarray
    block_maxes: list[np.ndarray]
