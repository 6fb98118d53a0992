"""Optimized EFTA with unified verification (EFTA-opt in Tables 1 and 2).

The optimisation of Section 3.4 keeps the same protection coverage but defers
verification wherever the protected quantity is not consumed before the end of
the row-block loop:

* the output tensor checksums are carried through every rescale / GEMM II /
  normalisation update and verified **once** per output block instead of at
  every inner iteration;
* the rowsum range restriction is applied **once** before normalisation
  instead of after every reduce-sum;
* GEMM I, the subtraction and the exponentiation remain verified every
  iteration through the single fused product check (they are consumed in
  place by GEMM II, so their verification cannot be deferred).

Functionally the two variants detect and correct the same single-event
upsets; the difference is purely in verification work, which is what the
Table 1 / Table 2 overhead comparison measures (via the cost model).
"""

from __future__ import annotations

from repro.core.efta import EFTAttention


class EFTAttentionOptimized(EFTAttention):
    """End-to-end fault tolerant attention with unified (deferred) verification.

    Inherits :meth:`EFTAttention.forward` and
    :meth:`EFTAttention.forward_batched` unchanged: the one fused kernel
    branches on :attr:`unified_verification` (per-iteration GEMM II
    verification and rowsum restriction are skipped; the final output
    verification and the rowsum restriction before normalisation run once
    per row block).
    """

    unified_verification = True
