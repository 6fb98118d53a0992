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
:meth:`EFTAttention.forward` is that kernel at a trial axis of one.  It runs
a head's row panels, and each panel's column blocks, as *spans*: several
panels or tiles at once where no fault can land, detecting only, and one at
a time wherever a fault can land or a check flags.

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

from repro.attention.tiling import block_runs, num_blocks
from repro.core.config import AttentionConfig, FaultToleranceReport
from repro.core.snvr import exp_checksum_propagate, restrict_rowsum_stacked, verify_exp_products
from repro.core.stacked import (
    block_view,
    forward_one_trial,
    forward_stacked,
    merge_panels,
    round_operand,
    run_panels,
    run_spans,
    split_panels,
    take_product,
)
from repro.core.strided_abft import BlockChecksums, KeyChecksums, StridedABFT
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite
from repro.fp.float16 import FP16Operand, fp16_matmul
from repro.hardware.costmodel import AttentionCostModel, AttentionWorkload, CostBreakdown
from repro.hardware.specs import A100_PCIE_40GB, GPUSpec
from repro.scratch import frame, take

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
        """Algorithm 1 on ``(trials, seq, head_dim)`` operands, span by span.

        Stack-invariance rules: the trial axis is never flattened into a
        GEMM's row dimension (a fused 2D GEMM can pick a different kernel
        blocking and drift in the last bits); reductions stay on the last
        axis or on a stacked leading axis, in stack order; every trial's
        injector sees the offer sequence of a lone run.

        Spans (:mod:`repro.core.stacked`): the row panels run in panel spans
        (:func:`~repro.core.stacked.run_panels`, :meth:`_panel_span`) and
        each panel's equal-width column blocks in tile spans
        (:func:`~repro.core.stacked.run_spans`, :meth:`_span`); a ragged
        tail block is a run of its own.  GEMM I and its two checksum
        products run once per panel span and run, broadcast over
        ``(trials, panels, tiles, ...)``; the rest of the body runs on the
        merged ``(trials x panels)`` axis.  Every stacked op is elementwise,
        a reduction over the last axis or, in stack order, over a stacked
        one, the running max, or a batched GEMM on each tile's own 2-D
        operands in the layout a lone tile has, so values are bitwise those
        of a panel-by-panel, tile-by-tile loop.

        Round-once rule: every GEMM operand is rounded to FP16 once, where it
        is produced, and reused by each product that reads it (an
        :class:`~repro.fp.float16.FP16Operand`), as the fused kernel's MMAs
        reuse a loaded tile.  Before the panel loop, per run of equal-width
        blocks: ``K^T`` and ``V``, the key checksums and ``V``'s three
        checksums, rounded from ``(trials, 1, tiles, ...)`` views (a panel
        axis of one).  Per panel span: its ``Q_i``.  Per tile span: ``P``,
        after any EXP-stage repair.  Rounding keeps each view's memory order,
        and NumPy runs one BLAS call per trial, panel and tile on the same
        values in the same order, so the products are bitwise those of
        rounding inside every call.
        """
        cfg = self.config
        runs = []
        for first, n_tiles, cols in block_runs(k.shape[1], cfg.block_size):
            k_r = block_view(k, n_tiles, cols)[:, None]
            v_r = block_view(v, n_tiles, cols)[:, None]
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
        out = np.empty(q.shape, dtype=np.float32)
        panel_span = partial(self._panel_span, q, runs, k.shape[1], out, router, reports)
        run_panels(router, q.shape[0], q.shape[1], k.shape[1], cfg.block_size, panel_span)
        return out

    def _panel_span(
        self,
        q: np.ndarray,
        runs: list["_KeyValueRun"],
        n_keys: int,
        out: np.ndarray,
        router,
        reports: list[FaultToleranceReport],
        p: int,
        r: int,
        quiet: bool,
    ) -> bool:
        """Row panels ``p..r-1`` of one group: one panel span.

        Per run of key blocks: GEMM I and its checksum products for every
        panel and tile, then the run's tile spans.  Once per span: the
        rowsum restriction before normalisation (SNVR case 3), the
        normalisation with its ``NORMALIZE`` offer, and the output
        verification.  A quiet span makes no offer and only detects: when a
        check flags it returns ``False`` before writing ``out`` or
        ``reports``.
        """
        cfg = self.config
        scale = np.float32(cfg.effective_scale)
        trials, seq_len, head_dim = q.shape
        stride = cfg.checksum_stride
        rows = slice(p * cfg.block_size, min(r * cfg.block_size, seq_len))
        q_i = round_operand(block_view(q, r - p, rows))[:, :, None]
        lead, height = trials * (r - p), q_i.shape[3]
        panel = _Panel(
            n_panels=r - p,
            row_max=np.full((lead, height), -np.inf, dtype=np.float32),
            row_sum=np.zeros((lead, height), dtype=np.float32),
            acc=np.zeros((lead, height, head_dim), dtype=np.float32),
            acc_c1=np.zeros((lead, height, stride), dtype=np.float32),
            acc_c2=np.zeros((lead, height, stride), dtype=np.float32),
            acc_mag=np.zeros((lead, height, stride), dtype=np.float32),
            block_maxes=np.empty(
                (num_blocks(n_keys, cfg.block_size), lead, height), dtype=np.float32
            ),
        )
        for run in runs:
            chk = self.abft.score_checksums(q_i, run.key_chk, scale)
            score_chk = BlockChecksums(
                check1=merge_panels(chk.check1),
                check2=merge_panels(chk.check2),
                class_counts=chk.class_counts,
            )
            scores = fp16_matmul(q_i, run.k_t, out=take_product(q_i, run.k_t))
            scores = merge_panels(np.multiply(scores, scale, out=scores))
            span = partial(self._span, p, run, scores, score_chk, panel, router, reports)
            if not run_spans(router, p, run.first, run.n_tiles, span, quiet):
                return False

        lower = _rowsum_lower_bounds(panel.block_maxes, panel.row_max[:, None])[:, 0]
        row_sum, counts = restrict_rowsum_stacked(panel.row_sum, lower, float(n_keys))
        if counts.any():
            if quiet:
                return False
            _record_restorations(counts, reports)

        denom = np.where(row_sum > 0.0, row_sum, 1.0).astype(np.float32)
        o_block = panel.acc / denom[..., None]
        if not quiet:
            router.corrupt(FaultSite.NORMALIZE, o_block, block=(p, -1))
        acc_c1 = panel.acc_c1 / denom[..., None]
        magnitude = _OUTPUT_MAGNITUDE_FLOOR * panel.acc_mag / denom[..., None]
        if quiet:
            if self.abft.output_flags(o_block, acc_c1, magnitude=magnitude).any():
                return False
        else:
            acc_c2 = panel.acc_c2 / denom[..., None]
            verdicts = self.abft.verify_output_stacked(o_block, acc_c1, acc_c2, magnitude=magnitude)
            _record_stacked_verdicts("output", verdicts, reports)
        out[:, rows] = o_block.reshape(trials, -1, head_dim)
        return True

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
        quiet: bool,
    ) -> bool:
        """Tiles ``a..b-1`` of ``run`` in the panel span from row panel ``i``: one tile span.

        Once per span: ``exp``, the EXP-stage checksum propagation and
        product check, the rescale factors, the row sums, one stacked ``P V``
        with its three checksum products and, for per-iteration verification,
        the rowsum restriction of every tile (:func:`_rowsum_lower_bounds`)
        and the output checksum detection.  The running max is one
        ``np.maximum.accumulate`` over the tile axis (bitwise the chained
        ``np.maximum``); the row sum and the accumulators are sequential
        loops over the tiles that overwrite the tile sums and the ``P V``
        products in place, so ``pv[:, t]`` ends as the accumulator after tile
        ``t``.  The probabilities, ``P``'s rounding and the ``P V`` products
        are taken from the span's scratch frame (:mod:`repro.scratch`); a
        committing span copies its last accumulators into the panel's.

        A span that is not quiet is one tile: it makes the tile's six offers
        and repairs what its checks flag, in the tile loop's order.  A quiet
        span makes no offer -- none could reach a fault (see
        :meth:`~repro.fault.injector._BatchFaultRouter.quiet_prefix`) -- and
        only detects: when a check flags for any trial it returns ``False``
        before touching ``reports`` or ``panel`` (beyond block-max slots past
        the committed tiles, which a replay rewrites), so nothing else has
        changed either.
        """
        cfg = self.config
        block = (i, run.first + a)
        s = scores[:, a:b]
        if not quiet:
            router.corrupt(FaultSite.GEMM_QK, s[:, 0], block=block)

        local_max = s.max(axis=-1)
        # maxes[:, 0] is the running max before the span, maxes[:, t + 1]
        # after its tile t.
        maxes = np.concatenate((panel.row_max[:, None], local_max), axis=1)
        np.maximum.accumulate(maxes, axis=1, out=maxes)
        if not quiet:
            router.corrupt(FaultSite.REDUCE_MAX, maxes[:, 1], block=block)
        new_max = maxes[:, 1:]

        probs = np.subtract(s, new_max[..., None], out=take(s.shape))
        np.exp(probs, out=probs)
        if not quiet:
            router.corrupt(FaultSite.SUBTRACT_EXP, probs[:, 0], block=block)

        check1 = score_chk.check1[:, a:b]
        flagged = self._exp_stage_flags(probs, new_max, check1, score_chk.class_counts)
        if flagged.any():
            if quiet:
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
        # Each tile's sum, overwritten in place by the row sum after it.
        sums = probs.sum(axis=-1, dtype=np.float32)
        p = round_operand(split_panels(probs, panel.n_panels))
        values = [x[:, :, a:b] for x in run.values]
        pv, pv_c1, pv_c2, pv_mag = (
            merge_panels(fp16_matmul(p, x, out=take_product(p, x))) for x in values
        )

        m = run.first + a
        panel.block_maxes[m : m + b - a] = np.moveaxis(local_max, 1, 0)
        row_sum = panel.row_sum
        for t in range(b - a):
            row_sum = np.add(rescale[:, t] * row_sum, sums[:, t], out=sums[:, t])
        if not quiet:
            router.corrupt(FaultSite.REDUCE_SUM, row_sum, block=block)
        if not self.unified_verification:
            lower = _rowsum_lower_bounds(panel.block_maxes[: m + b - a], new_max)
            attended = np.minimum(np.arange(m + 1, m + b - a + 1) * cfg.block_size, run.stop)
            sums, counts = restrict_rowsum_stacked(sums, lower, attended[:, None])
            if counts.any():
                if quiet:
                    return False
                _record_restorations(counts, reports)
            row_sum = sums[:, -1]

        acc, acc_c1, acc_c2, acc_mag = panel.acc, panel.acc_c1, panel.acc_c2, panel.acc_mag
        for t in range(b - a):
            r = rescale[:, t, :, None]
            acc_scaled = r * acc
            if not quiet:
                router.corrupt(FaultSite.RESCALE, acc_scaled, block=block)
            acc = np.add(acc_scaled, pv[:, t], out=pv[:, t])
            if not quiet:
                router.corrupt(FaultSite.GEMM_PV, acc, block=block)
            acc_c1 = np.add(r * acc_c1, pv_c1[:, t], out=pv_c1[:, t])
            acc_c2 = np.add(r * acc_c2, pv_c2[:, t], out=pv_c2[:, t])
            acc_mag = np.add(r * acc_mag, pv_mag[:, t], out=pv_mag[:, t])
        if not self.unified_verification:
            if quiet:
                magnitude = _OUTPUT_MAGNITUDE_FLOOR * pv_mag
                if self.abft.output_flags(pv, pv_c1, magnitude=magnitude).any():
                    return False
            else:
                verdicts = self.abft.verify_output_stacked(
                    acc, acc_c1, acc_c2, magnitude=_OUTPUT_MAGNITUDE_FLOOR * acc_mag
                )
                _record_stacked_verdicts("gemm_pv", verdicts, reports)

        panel.row_max = maxes[:, -1]
        panel.row_sum = row_sum
        np.copyto(panel.acc, acc)
        np.copyto(panel.acc_c1, acc_c1)
        np.copyto(panel.acc_c2, acc_c2)
        np.copyto(panel.acc_mag, acc_mag)
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
        with frame():
            p_check = exp_checksum_propagate(
                check1, new_max, class_counts, out=take(check1.shape, np.float64)
            )
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


def _rowsum_lower_bounds(block_maxes: np.ndarray, row_max: np.ndarray) -> np.ndarray:
    """SNVR case 3's rowsum lower bounds of consecutive tiles, in one pass.

    ``block_maxes`` is ``(blocks, L, rows)``: a panel's local block maxes up
    to its last tile, and ``row_max`` is ``(L, tiles, rows)``: the running
    max after each of the last ``tiles`` blocks.  Returns ``(L, tiles,
    rows)``: tile ``t``'s bound adds ``exp(m - row_max[:, t])`` over the
    block maxes ``m`` up to its own block, first to last, one float32 add
    each -- the terms and the order of stacking those maxes and summing over
    the stacked axis, tile by tile.  A later block's term is masked to
    ``exp(-inf) = +0.0`` without being computed, so it raises no warning,
    and adding +0.0 leaves a sum of exponentials (never -0.0) as it is.

    A lone ``(trial, row)`` (``L * rows == 1``) is summed tile by tile:
    NumPy sums a lone contiguous axis pairwise, not in order (see
    :func:`repro.gemm.checksum._strided_folds`), and so does the stacked
    per-tile sum.
    """
    n_blocks, n_tiles = block_maxes.shape[0], row_max.shape[1]
    first = n_blocks - n_tiles
    if row_max[:, 0].size == 1:
        return np.stack(
            [
                np.exp(block_maxes[: first + t + 1] - row_max[None, :, t]).sum(axis=0)
                for t in range(n_tiles)
            ],
            axis=1,
        )
    used = np.arange(n_blocks)[:, None] <= first + np.arange(n_tiles)
    diff = np.full((n_blocks,) + row_max.shape, -np.inf, dtype=np.float32)
    np.subtract(block_maxes[:, :, None], row_max, out=diff, where=used[:, None, :, None])
    return np.exp(diff).sum(axis=0)


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
    threshold), each ``(trials, 1, tiles, B_c, ...)``: the panel axis of
    one broadcasts against a panel span's stacked query panels.
    """

    first: int
    n_tiles: int
    stop: int
    k_t: FP16Operand
    key_chk: KeyChecksums
    values: tuple[FP16Operand, FP16Operand, FP16Operand, FP16Operand]


@dataclass
class _Panel:
    """A panel span's running state on its merged ``(trials x panels)`` axis.

    This is what a committed tile span advances; the four accumulators are
    the panel span's own arrays, which each committed tile span overwrites.
    ``block_maxes[m]`` holds block ``m``'s local max once the tile span
    holding it has committed; later slots hold no committed value.
    """

    n_panels: int
    row_max: np.ndarray
    row_sum: np.ndarray
    acc: np.ndarray
    acc_c1: np.ndarray
    acc_c2: np.ndarray
    acc_mag: np.ndarray
    block_maxes: np.ndarray
