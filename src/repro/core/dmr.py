"""Dual modular redundancy (DMR) for the row softmax (baseline protection).

The decoupled framework of Section 3.1 protects the nonlinear softmax kernel
by executing it twice and accepting the result only when the two executions
agree within a tolerance (Equations 10-11); on disagreement the computation is
repeated.  Because the duplicate cannot be fused into the attention pipeline
it roughly doubles the softmax cost, which is what the SNVR comparison in
Figure 13 quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.attention.softmax import stable_softmax
from repro.fault.injector import FaultInjector, _BatchFaultRouter
from repro.fault.models import FaultSite
from repro.scratch import frame, take


def dmr_row_softmax(
    scores: np.ndarray,
    injector: FaultInjector | None = None,
    tolerance: float = 1e-3,
    max_rounds: int = 3,
) -> tuple[np.ndarray, dict[str, int]]:
    """Row softmax with dual modular redundancy.

    The first execution is exposed to the fault injector (site
    :data:`FaultSite.SOFTMAX`); redundant executions are assumed clean under
    the SEU model.  If the two executions disagree anywhere beyond
    ``tolerance`` (relative), the faulty result is discarded and the softmax
    recomputed, up to ``max_rounds`` times.

    Returns
    -------
    (probs, stats):
        The accepted probability matrix and a stats dict with keys
        ``rounds`` (extra executions beyond the mandatory duplicate),
        ``detected`` (1 if any disagreement was seen) and ``rowsum_violations``
        (rows whose sum deviates from 1 beyond the tolerance, Equation 11).
    """
    router = _BatchFaultRouter([injector])
    probs, stats = dmr_row_softmax_stacked(
        np.asarray(scores, dtype=np.float32)[None], router, tolerance, max_rounds
    )
    return probs[0], stats[0]


def dmr_row_softmax_stacked(
    scores: np.ndarray,
    router,
    tolerance: float = 1e-3,
    max_rounds: int = 3,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, list[dict[str, int]]]:
    """:func:`dmr_row_softmax` over a stacked ``(trials, rows, cols)`` tensor.

    Both softmax executions and the agreement comparison run once over the
    stack (row softmax and the elementwise checks are per-slice, so a trial's
    values do not depend on the stack).  A trial whose duplicate is equal
    and whose row sums are finite (so every value is) agrees without the
    tolerance test, which runs only on the other trials.  Trials whose
    duplicate agrees and whose row sums hold get zero stats without further
    work; a flagged trial runs the retry loop on its own slice -- starting
    from the already-offered primary, so the injector is not consulted again.

    ``router`` fans the single :data:`FaultSite.SOFTMAX` offer out to every
    trial's injector on its own slice.  :func:`dmr_row_softmax` is this at a
    trial axis of one.  The accepted probabilities are written into ``out``
    (a C-contiguous float32 array of the scores' shape) when it is given;
    the duplicate execution and the agreement mask are scratch
    (:mod:`repro.scratch`).
    """
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    scores = np.asarray(scores, dtype=np.float32)
    n_trials = scores.shape[0]
    primary = stable_softmax(scores, axis=-1, out=out)
    router.corrupt(FaultSite.SOFTMAX, primary)
    with frame():
        reference = stable_softmax(scores, axis=-1, out=take(scores.shape))

        rowsums = primary.sum(axis=-1)
        # Equal finite values pass the tolerance test, and a finite sum has only
        # finite addends.
        ok = np.equal(primary, reference, out=take(scores.shape, np.bool_))
        ok = ok.reshape(n_trials, -1).all(axis=1)
        ok &= np.isfinite(rowsums).reshape(n_trials, -1).all(axis=1)
        for t in np.flatnonzero(~ok):
            ok[t] = _agrees(primary[t], reference[t], tolerance)
        violation_counts = (np.abs(rowsums - 1.0) > tolerance).reshape(n_trials, -1).sum(axis=1)

        stats_list: list[dict[str, int]] = []
        spare = None
        for t in range(n_trials):
            stats = {"rounds": 0, "detected": 0, "rowsum_violations": 0}
            if ok[t] and not violation_counts[t]:
                stats_list.append(stats)
                continue
            if spare is None:
                spare = take(scores.shape[1:])
            # Three buffers rotate: the accepted candidate, the duplicate it
            # is checked against, and the one a recomputation writes.
            current, ref, free = primary[t], reference[t], spare
            for _ in range(max_rounds):
                if _agrees(current, ref, tolerance):
                    break
                stats["detected"] = 1
                stats["rounds"] += 1
                current, ref, free = ref, stable_softmax(scores[t], axis=-1, out=free), current
            rs = current.sum(axis=-1)
            n_violations = int(np.count_nonzero(np.abs(rs - 1.0) > tolerance))
            if n_violations:
                stats["detected"] = 1
                stats["rowsum_violations"] = n_violations
                stats["rounds"] += 1
                current = stable_softmax(scores[t], axis=-1, out=free)
            primary[t] = current
            stats_list.append(stats)
    return primary, stats_list


#: Elements :func:`_agrees` compares at a time.
_AGREE_ELEMENTS = 1 << 14


def _agrees(x: np.ndarray, ref: np.ndarray, tolerance) -> bool:
    """``np.all(|x - ref| <= tolerance * max(|ref|, 1e-6))``, a block of rows at a time.

    Elementwise, so the verdict is the whole array's; the blocks keep the
    temporaries small.
    """
    rows = max(1, _AGREE_ELEMENTS // max(1, x[0].size))
    for r0 in range(0, x.shape[0], rows):
        xs, rs = x[r0 : r0 + rows], ref[r0 : r0 + rows]
        if not np.all(np.abs(xs - rs) <= tolerance * np.maximum(np.abs(rs), 1e-6)):
            return False
    return True
