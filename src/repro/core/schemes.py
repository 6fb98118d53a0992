"""Pluggable protection-scheme registry: one interface over every attention variant.

The paper's headline comparisons (Tables 1-2, Figures 9/13/15) are
*cross-scheme*: end-to-end fault tolerant attention (EFTA) against its
unified-verification optimisation, the decoupled three-kernel baseline, and
unprotected flash attention.  This module gives every variant one strategy
interface so that the Transformer stack, the campaign runner, and the
benchmarks select a scheme **by name** instead of hard-wiring classes:

* ``"none"`` -- unprotected flash attention (the paper's performance
  baseline).  Faults injected into it propagate silently -- the silent data
  corruption reference of the coverage studies.
* ``"efta"`` -- end-to-end fault tolerant attention with per-iteration
  verification (:class:`repro.core.efta.EFTAttention`).
* ``"efta_unified"`` -- the unified-verification optimisation, EFTA-opt in
  Tables 1 and 2 (:class:`repro.core.efta_optimized.EFTAttentionOptimized`).
* ``"decoupled"`` -- the three-kernel operation-level baseline
  (:class:`repro.core.decoupled.DecoupledFTAttention`).

Every scheme implements ``forward(q, k, v, injector) -> (out, report)`` and
``cost_breakdown(batch, heads)``; new schemes register with::

    @register_scheme("my_scheme")
    class MyScheme(ProtectionScheme):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from repro.attention.tiling import block_runs, partition_blocks
from repro.core.config import AttentionConfig, FaultToleranceReport
from repro.core.decoupled import DecoupledFTAttention
from repro.core.efta import EFTAttention
from repro.core.efta_optimized import EFTAttentionOptimized
from repro.core.stacked import forward_one_trial, forward_stacked, run_spans, tile_view
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite
from repro.fp.float16 import FP16Operand, fp16_matmul
from repro.hardware.costmodel import AttentionCostModel, AttentionWorkload, CostBreakdown
from repro.hardware.kernel import KernelLedger
from repro.hardware.specs import A100_PCIE_40GB, GPUSpec


class ProtectionScheme:
    """Strategy interface shared by every registered protection scheme.

    Parameters
    ----------
    config:
        The attention shape and fault-tolerance thresholds.
    spec:
        Simulated GPU (used by :meth:`cost_breakdown`).
    """

    #: Registry name, set by :func:`register_scheme`.
    name: ClassVar[str] = ""
    #: Whether the surrounding layers (QKV/output projections, feed-forward)
    #: should verify their GEMMs when running under this scheme.
    protects_linear: ClassVar[bool] = True

    def __init__(self, config: AttentionConfig, spec: GPUSpec = A100_PCIE_40GB):
        self.config = config
        self.spec = spec

    # ------------------------------------------------------------------ #
    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        injector: FaultInjector | None = None,
    ) -> tuple[np.ndarray, FaultToleranceReport]:
        """Attention over ``(..., seq_len, head_dim)`` tensors under this scheme."""
        raise NotImplementedError

    def __call__(self, q, k, v, injector=None):
        return self.forward(q, k, v, injector=injector)

    # ------------------------------------------------------------------ #
    def forward_batched(self, q, k, v, router):
        """Attention over a stack of trials (a leading *trial* axis).

        ``q``/``k``/``v`` carry an extra leading trial dimension
        (``(trials, ..., seq_len, head_dim)``); ``router`` fans every
        ``corrupt(site, array, block)`` offer out to each trial's own
        injector on ``array[t]`` (see
        :class:`repro.fault.injector._BatchFaultRouter`).  Implementations
        must return ``(out, reports)`` with one
        :class:`~repro.core.config.FaultToleranceReport` per trial, and every
        per-trial slice of ``out`` (and of the report counters) must be
        bitwise identical to what :meth:`forward` produces for that trial
        alone -- batching is an execution-speed optimisation, never a
        numerics trade-off.  The built-in schemes implement their kernel
        only here; their :meth:`forward` is this at a trial axis of one
        (:func:`repro.core.stacked.forward_one_trial`).

        The default declines (returns ``None``): the caller runs the trials
        one by one through :meth:`forward`.  A scheme that advertises
        :attr:`supports_batched` must not decline, because the caller may
        already have consumed per-trial generators by the time it calls this.
        """
        return None

    @property
    def supports_batched(self) -> bool:
        """Whether this scheme implements :meth:`forward_batched`.

        Subclasses may also shadow this with a plain ``supports_batched =
        False`` class attribute to opt out explicitly (e.g. schemes whose
        verification state cannot be stacked).
        """
        return type(self).forward_batched is not ProtectionScheme.forward_batched

    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        """Simulated (roofline) cost of this scheme for a full multi-head workload."""
        raise NotImplementedError

    def fits_in_memory(self, batch: int, heads: int) -> bool:
        """Whether the scheme's working set fits the simulated device HBM.

        Fused O(n) schemes always fit; the decoupled baseline materialises the
        O(n^2) intermediates and overrides this (the Figure 9 OOM point).
        """
        return True

    # ------------------------------------------------------------------ #
    def _cost_model(self, batch: int, heads: int) -> AttentionCostModel:
        workload = AttentionWorkload(
            batch=batch,
            heads=heads,
            seq_len=self.config.seq_len,
            head_dim=self.config.head_dim,
            block_size=self.config.block_size,
        )
        return AttentionCostModel(workload, self.spec)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_SCHEMES: dict[str, type[ProtectionScheme]] = {}


def register_scheme(name: str):
    """Class decorator registering a :class:`ProtectionScheme` under ``name``."""

    def decorator(cls: type[ProtectionScheme]) -> type[ProtectionScheme]:
        if not name:
            raise ValueError("scheme name must be non-empty")
        if name in _SCHEMES:
            raise ValueError(f"protection scheme {name!r} is already registered")
        cls.name = name
        _SCHEMES[name] = cls
        return cls

    return decorator


def available_schemes() -> list[str]:
    """Sorted names of all registered protection schemes."""
    return sorted(_SCHEMES)


def get_scheme(name: str) -> type[ProtectionScheme]:
    """Look up a registered scheme class by name."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown protection scheme {name!r}; registered: {available_schemes()}"
        ) from None


def build_scheme(
    name: str,
    config: AttentionConfig,
    spec: GPUSpec = A100_PCIE_40GB,
    **kwargs,
) -> ProtectionScheme:
    """Instantiate the scheme registered under ``name`` for ``config``."""
    return get_scheme(name)(config, spec=spec, **kwargs)


# --------------------------------------------------------------------------- #
# "none": unprotected flash attention
# --------------------------------------------------------------------------- #
@register_scheme("none")
class UnprotectedAttention(ProtectionScheme):
    """Unprotected flash-style attention: the performance baseline.

    The fault-free numerics are bit-identical to
    :func:`repro.attention.flash.flash_attention` with ``mixed_precision=True``
    (FP16 score GEMM, FP32 accumulation).  The loop additionally offers every
    intermediate to the injector at the same sites as EFTA, so injected faults
    propagate to the output *undetected* -- the silent-data-corruption
    reference the coverage campaigns compare protected schemes against.

    The recurrence is spelled out here (like EFTA's own kernel) rather than
    reusing ``OnlineSoftmaxState`` because the injector must see each
    intermediate between the fused update's steps; bit-identity with
    ``flash_attention`` is pinned by
    ``tests/core/test_schemes.py::TestParityWithHardwiredClasses``.  Like
    EFTA, it stacks each row panel's tiles: one GEMM I per panel, the rest
    of the tile body once per span of tiles no fault can reach
    (:func:`repro.core.stacked.run_spans`).  With nothing to verify, its
    spans never re-run.
    """

    protects_linear = False

    def forward(self, q, k, v, injector=None):
        return forward_one_trial(self.forward_batched, q, k, v, injector)

    def forward_batched(self, q, k, v, router):
        """The flash recurrence over a stack of trials (leading trial axis).

        The trial axis is carried through every intermediate and the matmuls
        stay batched-last-two-dims, so each trial's slice does not depend on
        the stack; every trial's injector receives the offer sequence (same
        sites, same blocks, same per-trial array shapes) of a lone run.  No
        verification happens under this scheme, so the reports stay empty.
        """
        return forward_stacked(self._forward_group, q, k, v, router)

    def _forward_group(self, q, k, v, router, reports):
        """The flash recurrence on ``(trials, seq, head_dim)`` operands, panel by panel.

        Each row panel stacks its equal-width column blocks on a tile axis,
        as EFTA's kernel does (:meth:`repro.core.efta.EFTAttention._forward_group`):
        GEMM I runs once per panel and run, the rest of the tile body once
        per span (:func:`repro.core.stacked.run_spans`).  With no checks, a
        span never flags.  The score GEMM's operands are rounded to FP16
        once: ``K^T`` per run of equal-width blocks, ``Q_i`` per panel.
        """
        cfg = self.config
        scale = np.float32(cfg.effective_scale)
        trials, seq_len, head_dim = q.shape
        out = np.empty((trials, seq_len, head_dim), dtype=np.float32)
        runs = [
            (first, n_tiles, FP16Operand(np.swapaxes(tile_view(k, n_tiles, cols), -1, -2)),
             tile_view(v, n_tiles, cols))
            for first, n_tiles, cols in block_runs(k.shape[1], cfg.block_size)
        ]
        for i, row_blk in enumerate(partition_blocks(seq_len, cfg.block_size)):
            q_i = FP16Operand(q[:, row_blk])[:, None]
            rows = q_i.shape[2]
            panel = _FlashPanel(
                row_max=np.full((trials, rows), -np.inf, dtype=np.float32),
                row_sum=np.zeros((trials, rows), dtype=np.float32),
                acc=np.zeros((trials, rows, head_dim), dtype=np.float32),
            )
            for first, n_tiles, k_t, v_r in runs:
                scores = fp16_matmul(q_i, k_t) * scale
                span = partial(_unprotected_span, router, i, first, scores, v_r, panel)
                run_spans(router, i, first, n_tiles, span)
            denom = np.where(panel.row_sum > 0.0, panel.row_sum, 1.0)
            o_block = (panel.acc / denom[..., None]).astype(np.float32)
            router.corrupt(FaultSite.NORMALIZE, o_block, block=(i, -1))
            out[:, row_blk] = o_block
        return out

    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        model = self._cost_model(batch, heads)
        base = KernelLedger(self.spec)
        base.add(model.flash_attention_cost())
        return CostBreakdown(name="unprotected", spec=self.spec, base=base, protection={})


def _unprotected_span(router, i, first, scores, v_r, panel, a, b) -> bool:
    """Tiles ``a..b-1`` of one run of the unprotected kernel: one span.

    Offers, ``exp``, the running max (one ``np.maximum.accumulate``), the
    rescale factors, the row sums and one stacked ``P V`` run once per span;
    the row sum and the accumulator stay sequential over the tiles.  Nothing
    is checked, so the span always commits.
    """
    blocks = [(i, first + t) for t in range(a, b)]
    s = scores[:, a:b]
    for t, block in enumerate(blocks):
        router.corrupt(FaultSite.GEMM_QK, s[:, t], block=block)
    # maxes[:, 0] is the running max before the span, maxes[:, t + 1] after
    # its tile t.  A REDUCE_MAX fault can only land in a one-tile span, after
    # which no tile of the span reads the running max.
    maxes = np.concatenate((panel.row_max[:, None], s.max(axis=-1)), axis=1)
    np.maximum.accumulate(maxes, axis=1, out=maxes)
    for t, block in enumerate(blocks):
        router.corrupt(FaultSite.REDUCE_MAX, maxes[:, t + 1], block=block)
    new_max = maxes[:, 1:]
    probs = np.exp(s - new_max[..., None])
    for t, block in enumerate(blocks):
        router.corrupt(FaultSite.SUBTRACT_EXP, probs[:, t], block=block)
    rescale = np.exp(maxes[:, :-1] - new_max)
    rescale = np.where(np.isfinite(rescale), rescale, np.float32(0.0))
    tile_sums = probs.sum(axis=-1, dtype=np.float32)
    # FP32 value accumulation, matching flash_attention's
    # OnlineSoftmaxState.update (only the score GEMM is FP16).
    pv = np.matmul(probs, v_r[:, a:b])
    row_sum, acc = panel.row_sum, panel.acc
    for t, block in enumerate(blocks):
        r = rescale[:, t]
        row_sum = r * row_sum + tile_sums[:, t]
        router.corrupt(FaultSite.REDUCE_SUM, row_sum, block=block)
        acc_scaled = r[..., None] * acc
        router.corrupt(FaultSite.RESCALE, acc_scaled, block=block)
        acc = acc_scaled + pv[:, t]
        router.corrupt(FaultSite.GEMM_PV, acc, block=block)
    panel.row_max, panel.row_sum, panel.acc = maxes[:, -1], row_sum, acc
    return True


@dataclass
class _FlashPanel:
    """A row panel's running max, row sum and accumulator in the unprotected kernel."""

    row_max: np.ndarray
    row_sum: np.ndarray
    acc: np.ndarray


# --------------------------------------------------------------------------- #
# Wrappers over the existing protected kernels
# --------------------------------------------------------------------------- #
class _KernelScheme(ProtectionScheme):
    """Base for schemes that delegate to an existing attention kernel class."""

    kernel_cls: ClassVar[type] = None

    def __init__(self, config: AttentionConfig, spec: GPUSpec = A100_PCIE_40GB, **kwargs):
        super().__init__(config, spec)
        self.kernel = self.kernel_cls(config, spec=spec, **kwargs)

    def forward(self, q, k, v, injector=None):
        return self.kernel.forward(q, k, v, injector=injector)

    def forward_batched(self, q, k, v, router):
        return self.kernel.forward_batched(q, k, v, router)

    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        return self.kernel.cost_breakdown(batch, heads)


@register_scheme("efta")
class EFTAScheme(_KernelScheme):
    """End-to-end fault tolerant attention, per-iteration verification."""

    kernel_cls = EFTAttention


@register_scheme("efta_unified")
class EFTAUnifiedScheme(_KernelScheme):
    """Optimized EFTA with unified (deferred) verification -- EFTA-opt."""

    kernel_cls = EFTAttentionOptimized


@register_scheme("decoupled")
class DecoupledScheme(_KernelScheme):
    """Three-kernel operation-level baseline (traditional ABFT + DMR)."""

    kernel_cls = DecoupledFTAttention

    def fits_in_memory(self, batch: int, heads: int) -> bool:
        return self._cost_model(batch, heads).decoupled_fits_in_memory()
