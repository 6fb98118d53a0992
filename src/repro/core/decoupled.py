"""Decoupled operation-level fault tolerant attention (the paper's baseline).

Section 3.1: attention is executed as three separate kernels -- ABFT-protected
GEMM for ``Q K^T``, DMR-protected row softmax, ABFT-protected GEMM for
``P V`` -- each reading and writing the O(n^2) intermediate tensors in HBM.
This module reproduces the baseline functionally (including its detection and
correction behaviour under fault injection) and exposes its simulated cost and
memory footprint, which is where the OOM at 16 K sequence length and the
3.69-7.56x slowdowns of Figure 9 come from.

The three kernels are written once, over a leading *trial* axis
(:meth:`DecoupledFTAttention.forward_batched`, see :mod:`repro.core.stacked`);
:meth:`DecoupledFTAttention.forward` runs them at a trial axis of one.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AttentionConfig, FaultToleranceReport
from repro.core.dmr import dmr_row_softmax_stacked
from repro.core.stacked import forward_one_trial, forward_stacked
from repro.core.traditional_abft import protected_matmul_stacked
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite
from repro.hardware.costmodel import AttentionCostModel, AttentionWorkload, CostBreakdown
from repro.hardware.memory import HBMTracker
from repro.hardware.specs import A100_PCIE_40GB, GPUSpec


class DecoupledFTAttention:
    """Three-kernel attention with traditional ABFT + DMR protection."""

    def __init__(
        self,
        config: AttentionConfig,
        spec: GPUSpec = A100_PCIE_40GB,
        track_memory: bool = False,
    ):
        self.config = config
        self.spec = spec
        self.track_memory = track_memory

    # ------------------------------------------------------------------ #
    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        injector: FaultInjector | None = None,
    ) -> tuple[np.ndarray, FaultToleranceReport]:
        """Protected attention over ``(..., seq_len, head_dim)`` tensors.

        Returns the attention output and a :class:`FaultToleranceReport`
        aggregating detections/corrections across all (batch, head) groups.
        The three kernels of :meth:`forward_batched` at a trial axis of one.
        """
        return forward_one_trial(self.forward_batched, q, k, v, injector)

    __call__ = forward

    def forward_batched(self, q, k, v, router):
        """Protected attention over a stack of trials (leading trial axis).

        The two ABFT GEMMs and both softmax executions run stacked over the
        trial axis; checksum encodes, verification and any DMR retries run
        per trial on slice views.  With ``track_memory`` the O(n^2)
        intermediates of one trial are first charged to the simulated HBM
        (raising :class:`~repro.hardware.memory.OutOfMemoryError` when they
        do not fit).  Returns ``(out, reports)`` with one report per trial;
        the reports' ``injected`` lists are left empty (the caller owns the
        per-trial injectors).
        """
        if self.track_memory:
            q_shape, k_shape = np.shape(q), np.shape(k)
            groups = int(np.prod(q_shape[1:-2]))
            seq, dim = q_shape[-2:]
            tracker = HBMTracker(self.spec)
            elem = 2  # FP16 storage of the intermediates
            tracker.allocate("qkv+o", 4 * groups * seq * dim * elem)
            tracker.allocate("scores", groups * seq * k_shape[-2] * elem)
            tracker.allocate("probs", groups * seq * k_shape[-2] * elem)
        return forward_stacked(self._forward_group, q, k, v, router)

    def _forward_group(self, q, k, v, router, reports):
        # Kernel I: ABFT-protected GEMM producing the full score tensor.
        scores, verdicts_qk = protected_matmul_stacked(
            q,
            np.swapaxes(k, -1, -2),
            router,
            scale=self.config.effective_scale,
            site=FaultSite.GEMM_QK,
            atol=self.config.checksum_atol,
            rtol=self.config.score_checksum_rtol,
        )
        for report, verdict in zip(reports, verdicts_qk):
            report.record_detection("gemm_qk", verdict.detected)
            report.record_correction("gemm_qk", verdict.corrected)
            report.record_uncorrectable("gemm_qk", verdict.uncorrectable)

        # Kernel II: DMR-protected row softmax producing the full P tensor.
        probs, stats_list = dmr_row_softmax_stacked(scores, router)
        for report, stats in zip(reports, stats_list):
            report.record_detection("softmax", stats["detected"])
            report.record_recomputation("softmax", stats["rounds"])

        # Kernel III: ABFT-protected GEMM producing the attention output.
        out, verdicts_pv = protected_matmul_stacked(
            probs,
            v,
            router,
            scale=1.0,
            site=FaultSite.GEMM_PV,
            atol=self.config.checksum_atol,
            rtol=self.config.output_checksum_rtol,
        )
        for report, verdict in zip(reports, verdicts_pv):
            report.record_detection("gemm_pv", verdict.detected)
            report.record_correction("gemm_pv", verdict.corrected)
            report.record_uncorrectable("gemm_pv", verdict.uncorrectable)
        return out

    # ------------------------------------------------------------------ #
    def cost_breakdown(self, batch: int, heads: int, track_memory: bool = False) -> CostBreakdown:
        """Simulated (roofline) cost of this baseline for a full workload."""
        workload = AttentionWorkload(
            batch=batch,
            heads=heads,
            seq_len=self.config.seq_len,
            head_dim=self.config.head_dim,
            block_size=self.config.block_size,
        )
        model = AttentionCostModel(workload, self.spec)
        return model.decoupled_ft_breakdown(track_memory=track_memory)
