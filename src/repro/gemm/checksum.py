"""ABFT checksum encodings: traditional element-wise and strided tensor checksums.

Two families are implemented:

* **Traditional (Huang & Abraham) checksums** (Equations 8-9): the operand
  matrices are augmented with full-width row/column checksum vectors using the
  weights ``[1, 1, ..., 1]`` and ``[1, 2, ..., M]``; a single error in the
  product is located by the ratio of the two residuals and corrected by adding
  the unweighted residual back.
* **Strided tensor checksums** (Equations 12-15): the operand is folded at the
  same-thread stride of the TiledMMA layout (8 along the output's N
  dimension), producing an 8-column-wide checksum per block.  Each of the 8
  checksum columns protects an interleaved subset of the output columns, so up
  to 8 errors per row are correctable as long as no two fall in the same
  stride class -- the "up to a factor of 8" coverage improvement of §3.3.

All verification routines return a :class:`ChecksumVerdict` describing what
was detected, what was corrected, and what could not be corrected, and they
correct the output **in place** (mirroring the in-register correction of the
CUDA kernels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Correction:
    """One applied (or attempted) correction."""

    row: int
    col: int
    delta: float


@dataclass
class ChecksumVerdict:
    """Outcome of a checksum verification pass."""

    detected: int = 0
    corrections: list[Correction] = field(default_factory=list)
    uncorrectable: int = 0
    max_residual: float = 0.0

    @property
    def corrected(self) -> int:
        """Number of corrections applied."""
        return len(self.corrections)

    @property
    def clean(self) -> bool:
        """True if no mismatch exceeded the threshold."""
        return self.detected == 0

    def merge(self, other: "ChecksumVerdict") -> "ChecksumVerdict":
        """Accumulate another verdict into this one and return ``self``."""
        self.detected += other.detected
        self.corrections.extend(other.corrections)
        self.uncorrectable += other.uncorrectable
        self.max_residual = max(self.max_residual, other.max_residual)
        return self


# --------------------------------------------------------------------------- #
# Traditional (element-wise) checksums, Equations (8) and (9)
# --------------------------------------------------------------------------- #
def column_weights(m: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """Column checksum weight vectors ``c1 = 1`` and ``c2 = [1..M]``."""
    return np.ones(m, dtype=dtype), np.arange(1, m + 1, dtype=dtype)


def row_weights(n: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """Row checksum weight vectors ``r1 = 1`` and ``r2 = [1..N]``."""
    return np.ones(n, dtype=dtype), np.arange(1, n + 1, dtype=dtype)


def encode_column_checksums(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode the two column-checksum rows ``c1 A`` and ``c2 A`` of ``A`` (M x K).

    Leading axes pass through: ``A`` of shape ``(..., M, K)`` gives rows of
    shape ``(..., K)``, each bitwise its own slice's encoding.
    """
    a = np.asarray(a, dtype=np.float32)
    c1, c2 = column_weights(a.shape[-2])
    return c1 @ a, c2 @ a


def encode_row_checksums(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode the two row-checksum columns ``B r1`` and ``B r2`` of ``B`` (K x N)."""
    b = np.asarray(b, dtype=np.float32)
    r1, r2 = row_weights(b.shape[1])
    return b @ r1, b @ r2


def _threshold(magnitude: np.ndarray, atol: float, rtol: float) -> np.ndarray:
    """Detection threshold: absolute floor plus a fraction of the accumulated magnitude.

    Checksums are signed sums and can cancel to near zero even when the
    accumulated values are large, so thresholds must be relative to the sum of
    *absolute* values that went into the checksum -- otherwise FP16 round-off
    triggers false alarms on near-zero checksums (cf. Figure 12's false-alarm
    analysis).
    """
    return atol + rtol * np.abs(magnitude)


def verify_column_checksums(
    c: np.ndarray,
    c_check1: np.ndarray,
    c_check2: np.ndarray,
    atol: float = 1e-3,
    rtol: float = 0.0,
) -> ChecksumVerdict:
    """Verify/correct ``C`` (M x N) against column checksums of shape (N,).

    ``c_check1``/``c_check2`` are the checksum rows produced by multiplying the
    encoded operand (``c1 A`` and ``c2 A``) with B.  A single corrupted element
    per column is located via the residual ratio and corrected in place.  A
    ratio that is not finite (the weighted checksum overflowed, as FP16
    operands with weights up to ``M`` do past 65504) locates nothing: the
    column counts as uncorrectable.  The weighted sums (an M x N float64
    temporary) only locate, so they are built only once a column is flagged.
    """
    c = np.asarray(c)
    sum1 = c.sum(axis=0, dtype=np.float64)
    res1 = np.asarray(c_check1, dtype=np.float64) - sum1
    verdict = ChecksumVerdict()
    verdict.max_residual = float(np.max(np.abs(res1))) if res1.size else 0.0
    magnitude = np.abs(c).sum(axis=0, dtype=np.float64)
    thresh = _threshold(magnitude, atol, rtol)
    bad_cols = np.nonzero(np.abs(res1) > thresh)[0]
    verdict.detected = int(bad_cols.size)
    if bad_cols.size:
        sum2 = (np.arange(1, c.shape[0] + 1, dtype=np.float64)[:, None] * c).sum(axis=0)
        res2 = np.asarray(c_check2, dtype=np.float64) - sum2
    for j in bad_cols:
        if abs(res1[j]) < np.finfo(np.float64).tiny:
            verdict.uncorrectable += 1
            continue
        row_f = res2[j] / res1[j]
        if not np.isfinite(row_f):
            verdict.uncorrectable += 1
            continue
        row = int(round(row_f)) - 1
        if not 0 <= row < c.shape[0] or abs(row_f - round(row_f)) > 0.25:
            verdict.uncorrectable += 1
            continue
        delta = res1[j]
        c[row, j] += delta
        verdict.corrections.append(Correction(row=row, col=int(j), delta=float(delta)))
    return verdict


def verify_column_checksums_stacked(
    c: np.ndarray,
    c_check1: np.ndarray,
    c_check2: np.ndarray,
    atol: float = 1e-3,
    rtol: float = 0.0,
) -> list[ChecksumVerdict]:
    """Per-trial :func:`verify_column_checksums` of a stacked ``C`` (T x M x N), in place.

    ``c_check1``/``c_check2`` are ``(T, N)``.  Sums run along the row axis
    of every trial at once, and every flagged column of every trial is
    located and corrected in one vectorised pass; each trial's verdict and
    corrected slice are bitwise the scalar routine's on that slice.  Like
    the scalar routine, a NaN or inf element poisons its column's sums so
    that the column is never flagged.
    """
    c = np.asarray(c)
    rows = c.shape[-2]
    sum1 = c.sum(axis=-2, dtype=np.float64)
    sum2 = (np.arange(1, rows + 1, dtype=np.float64)[:, None] * c).sum(axis=-2)
    res1 = np.asarray(c_check1, dtype=np.float64) - sum1
    res2 = np.asarray(c_check2, dtype=np.float64) - sum2
    magnitude = np.abs(c).sum(axis=-2, dtype=np.float64)
    verdicts = _residual_verdicts(res1)
    trial, col = np.nonzero(np.abs(res1) > _threshold(magnitude, atol, rtol))
    ok, row = _locate(res1[trial, col], res2[trial, col], rows)
    _apply_located(c, verdicts, trial, ok, row[ok], col[ok], res1[trial, col][ok])
    return verdicts


def verify_row_checksums(
    c: np.ndarray,
    r_check1: np.ndarray,
    r_check2: np.ndarray,
    atol: float = 1e-3,
    rtol: float = 0.0,
) -> ChecksumVerdict:
    """Verify/correct ``C`` (M x N) against row checksums of shape (M,).

    The row-wise twin of :func:`verify_column_checksums`, with the same rule
    for a non-finite locate ratio and the same lazily built weighted sums.
    """
    c = np.asarray(c)
    sum1 = c.sum(axis=1, dtype=np.float64)
    res1 = np.asarray(r_check1, dtype=np.float64) - sum1
    verdict = ChecksumVerdict()
    verdict.max_residual = float(np.max(np.abs(res1))) if res1.size else 0.0
    magnitude = np.abs(c).sum(axis=1, dtype=np.float64)
    thresh = _threshold(magnitude, atol, rtol)
    bad_rows = np.nonzero(np.abs(res1) > thresh)[0]
    verdict.detected = int(bad_rows.size)
    if bad_rows.size:
        sum2 = (c * np.arange(1, c.shape[1] + 1, dtype=np.float64)[None, :]).sum(axis=1)
        res2 = np.asarray(r_check2, dtype=np.float64) - sum2
    for i in bad_rows:
        if abs(res1[i]) < np.finfo(np.float64).tiny:
            verdict.uncorrectable += 1
            continue
        col_f = res2[i] / res1[i]
        if not np.isfinite(col_f):
            verdict.uncorrectable += 1
            continue
        col = int(round(col_f)) - 1
        if not 0 <= col < c.shape[1] or abs(col_f - round(col_f)) > 0.25:
            verdict.uncorrectable += 1
            continue
        delta = res1[i]
        c[i, col] += delta
        verdict.corrections.append(Correction(row=int(i), col=col, delta=float(delta)))
    return verdict


# --------------------------------------------------------------------------- #
# Strided tensor checksums, Equations (12)-(15)
# --------------------------------------------------------------------------- #
def _num_groups(cols: int, stride: int) -> int:
    return -(-cols // stride)


def encode_strided_row_checksums(
    kt: np.ndarray, stride: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Encode the two strided (tensor) row checksums of ``K^T`` (d x Bc).

    The columns of ``K^T`` are folded in groups of ``stride``:
    ``checksum1[:, j] = sum_l K^T[:, j + l*stride]`` and ``checksum2`` uses the
    group weight ``l + 1``.  Columns beyond the matrix extent contribute zero
    (equivalent to zero-padding the block, as the kernel does for ragged
    tails).
    """
    kt = np.asarray(kt, dtype=np.float32)
    cols = kt.shape[-1]
    groups = _num_groups(cols, stride)
    # Any number of leading dims is supported (a stacked trial axis folds the
    # same groups per slice); the fold is elementwise per column group, so the
    # stacked result's slices are bitwise the 2D encodings.
    check1 = np.zeros(kt.shape[:-1] + (stride,), dtype=np.float32)
    check2 = np.zeros(kt.shape[:-1] + (stride,), dtype=np.float32)
    for l in range(groups):
        chunk = kt[..., l * stride : (l + 1) * stride]
        width = chunk.shape[-1]
        check1[..., :width] += chunk
        check2[..., :width] += np.float32(l + 1) * chunk
    return check1, check2


def strided_sums(s: np.ndarray, stride: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Strided column sums of ``S`` (Br x Bc) matching the tensor checksums.

    Returns ``(sum1, sum2)`` of shape (Br, stride): ``sum1[i, j] =
    sum_l S[i, j + l*stride]`` and ``sum2`` with weight ``l + 1``.
    """
    s = np.asarray(s)
    # Leading dims beyond the row axis (e.g. a stacked trial axis) broadcast
    # through unchanged: the accumulation per slice is the 2D accumulation.
    return _strided_folds(s, stride)[0], _strided_weighted_fold(s, stride)


def _strided_weighted_fold(s: np.ndarray, stride: int) -> np.ndarray:
    """``sum2`` of :func:`strided_sums` alone: group ``l`` weighted by ``l + 1``."""
    sum2 = np.zeros(s.shape[:-1] + (stride,), dtype=np.float64)
    for l in range(_num_groups(s.shape[-1], stride)):
        chunk = s[..., l * stride : (l + 1) * stride].astype(np.float64)
        sum2[..., : chunk.shape[-1]] += (l + 1) * chunk
    return sum2


#: Float64 elements the strided folds widen at a time (512 KB of scratch).
#: Widening a whole stacked output at once costs memory in proportion to it.
_FOLD_CHUNK = 1 << 16


def _strided_folds(s: np.ndarray, stride: int) -> list[np.ndarray]:
    """The float64 strided folds of ``S`` and of ``|S|``.

    ``fold[..., j]`` starts at 0.0 and adds ``S[..., j + l*stride]`` for
    ``l = 0, 1, 2, ...`` in that order, one float64 add each -- the order
    the group-by-group definition reads, never a pairwise tree.  Rows of
    ``S`` are widened a chunk at a time into a C-contiguous, group-major
    buffer (``buf[1 + l, row, j]``), so one reduction over its outermost
    axis adds whole group slabs elementwise, in order.  Row 0 carries the
    partial sums: a row wider than a chunk folds a block of groups at a
    time.  A ragged last group is padded with +0.0, which leaves a partial
    sum as it is (one started from +0.0 is never -0.0).  The class axis is
    at least two wide: with a single contiguous column NumPy would reduce
    along it pairwise.  ``|S|`` reuses the widened buffer.

    Leading axes of ``S`` are merged into rows; they are a view for every
    array the kernels pass (a layout that cannot merge is copied first).
    """
    s = np.asarray(s)
    lead, cols = s.shape[:-1], s.shape[-1]
    n_rows = math.prod(lead)
    groups = _num_groups(cols, stride)
    width = max(stride, 2)
    folds = [np.zeros((n_rows, width)), np.zeros((n_rows, width))]
    if n_rows and groups:
        rows = s.reshape(n_rows, cols)
        group_step = max(1, min(groups, _FOLD_CHUNK // width - 1))
        row_step = max(1, min(n_rows, _FOLD_CHUNK // ((1 + group_step) * width)))
        scratch = np.empty((1 + group_step) * row_step * width)
        for r0 in range(0, n_rows, row_step):
            part = rows[r0 : r0 + row_step]
            n = part.shape[0]
            for g0 in range(0, groups, group_step):
                block = part[:, g0 * stride : (g0 + group_step) * stride]
                full, rem = divmod(block.shape[1], stride)
                buf = scratch[: (1 + full + bool(rem)) * n * width].reshape(-1, n, width)
                buf[1 : 1 + full, :, :stride] = (
                    block[:, : full * stride].reshape(n, full, stride).transpose(1, 0, 2)
                )
                if rem:
                    buf[-1, :, :rem] = block[:, full * stride :]
                    buf[-1, :, rem:] = 0.0
                buf[1:, :, stride:] = 0.0
                for k, fold in enumerate(folds):
                    if k:
                        np.abs(buf[1:], out=buf[1:])
                    buf[0] = fold[r0 : r0 + n]
                    np.add.reduce(buf, axis=0, out=fold[r0 : r0 + n])
    return [fold[:, :stride].reshape(lead + (stride,)) for fold in folds]


def verify_strided_checksums(
    s: np.ndarray,
    s_check1: np.ndarray,
    s_check2: np.ndarray,
    stride: int = 8,
    atol: float = 1e-2,
    rtol: float = 0.0,
    magnitude: np.ndarray | None = None,
) -> ChecksumVerdict:
    """Verify/correct ``S`` against its strided tensor checksums, in place.

    ``s_check1``/``s_check2`` are the (Br x stride) checksums produced by the
    checksum GEMM (Equations 14-15).  For every (row, stride-class) whose
    residual exceeds the threshold, the offending group index is recovered
    from the residual ratio and the element ``S[row, class + stride*group]``
    is corrected by the unweighted residual.  Errors in different stride
    classes of the same row are corrected independently, which is the source
    of the coverage advantage over single-column checksums.

    ``magnitude`` optionally overrides the per-class reference magnitude the
    relative threshold is taken against.  By default it is the strided sum of
    ``|S|`` itself, which is correct when ``S`` was computed in one GEMM; a
    running accumulator (the attention output) can cancel to near zero while
    the values folded into it stay O(1), in which case the caller must supply
    the accumulated magnitude to keep round-off below threshold.
    """
    s = np.asarray(s)
    rows, cols = s.shape
    groups = _num_groups(cols, stride)
    verdict = ChecksumVerdict()

    # Non-finite elements (a bit flip can turn an FP16 value into NaN/Inf)
    # poison every sum they touch, so they are repaired first: with a single
    # corrupted element per stride class, the correct value is the checksum
    # minus the sum of the remaining (finite) elements of that class.
    nonfinite = ~np.isfinite(s)
    if nonfinite.any():
        check1 = np.asarray(s_check1, dtype=np.float64)
        for i, j in np.argwhere(nonfinite):
            cls = j % stride
            class_cols = np.arange(cls, cols, stride)
            others = class_cols[class_cols != j]
            if np.all(np.isfinite(s[i, others])):
                verdict.detected += 1
                repaired = check1[i, cls] - float(np.sum(s[i, others], dtype=np.float64))
                delta = repaired - float(s[i, j]) if np.isfinite(s[i, j]) else float("nan")
                s[i, j] = repaired
                verdict.corrections.append(Correction(row=int(i), col=int(j), delta=delta))
            else:
                verdict.detected += 1
                verdict.uncorrectable += 1

    sum1, folded_abs = _strided_folds(s, stride)
    res1 = np.asarray(s_check1, dtype=np.float64) - sum1
    res2 = np.asarray(s_check2, dtype=np.float64) - _strided_weighted_fold(s, stride)
    verdict.max_residual = float(np.max(np.abs(res1))) if res1.size else 0.0
    if magnitude is None:
        magnitude = folded_abs
    else:
        magnitude = np.maximum(np.asarray(magnitude, dtype=np.float64), folded_abs)
    thresh = _threshold(magnitude, atol, rtol)
    bad = np.argwhere(np.abs(res1) > thresh)
    # Add to (not overwrite) the detections already recorded by the
    # non-finite repair above: a repaired NaN no longer exceeds the threshold
    # here, but it was detected.
    verdict.detected += int(bad.shape[0])
    for i, j in bad:
        if abs(res1[i, j]) < np.finfo(np.float64).tiny:
            verdict.uncorrectable += 1
            continue
        group_f = res2[i, j] / res1[i, j]
        if not np.isfinite(group_f):
            verdict.uncorrectable += 1
            continue
        group = int(round(group_f)) - 1
        col = j + stride * group
        if not 0 <= group < groups or col >= cols or abs(group_f - round(group_f)) > 0.25:
            verdict.uncorrectable += 1
            continue
        delta = res1[i, j]
        s[i, col] += delta
        verdict.corrections.append(Correction(row=int(i), col=int(col), delta=float(delta)))
    return verdict


def _strided_detect(
    s: np.ndarray,
    s_check1: np.ndarray,
    stride: int,
    atol: float,
    rtol: float,
    magnitude: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(finite, over, res1)`` of a stacked ``S``: the detection both stacked entries share.

    ``finite[t]`` is True when ``S[t]`` holds no NaN or inf, ``over`` marks
    each (row, class) residual over the threshold and ``res1`` is the
    float64 unweighted residual.  For a finite slice, ``over`` and ``res1``
    are bitwise what :func:`verify_strided_checksums` computes on it.
    """
    n_trials = s.shape[0]
    finite = np.isfinite(s).reshape(n_trials, -1).all(axis=1)
    fold, mag = _strided_folds(s, stride)
    res1 = np.asarray(s_check1, dtype=np.float64) - fold
    if magnitude is not None:
        mag = np.maximum(np.asarray(magnitude, dtype=np.float64), mag)
    return finite, np.abs(res1) > _threshold(mag, atol, rtol), res1


def strided_checksum_flags(
    s: np.ndarray,
    s_check1: np.ndarray,
    stride: int = 8,
    atol: float = 1e-2,
    rtol: float = 0.0,
    magnitude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The detection half of :func:`verify_strided_checksums`, per leading index.

    ``S`` is ``(T, ..., Br, Bc)``: any axes between the trial axis and the
    block (a tile axis, say) are folded into the trial's verdict.  Returns
    ``(flagged, res1)``: ``flagged[t]`` is True when ``S[t]`` holds a
    non-finite element or a (row, class) residual over the threshold, and
    ``res1`` is the float64 unweighted residual.  Everything is elementwise
    or a last-axis fold, so each block's flags and residuals are bitwise
    those of checking it alone.  Nothing is corrected.
    """
    s = np.asarray(s)
    finite, over, res1 = _strided_detect(s, s_check1, stride, atol, rtol, magnitude)
    return ~finite | over.reshape(s.shape[0], -1).any(axis=1), res1


def _residual_verdicts(res1: np.ndarray) -> list[ChecksumVerdict]:
    """One verdict per trial of ``res1`` (T x ...) holding only its ``max_residual``.

    The peak is the scalar routines' ``max(|res1|)`` of the trial's slice,
    and ``0.0`` for an empty one.
    """
    n_trials = res1.shape[0]
    if res1.size == 0:
        return [ChecksumVerdict() for _ in range(n_trials)]
    peaks = np.abs(res1).reshape(n_trials, -1).max(axis=1)
    return [ChecksumVerdict(max_residual=peak) for peak in peaks.tolist()]


def _locate(res1: np.ndarray, res2: np.ndarray, extent: int) -> tuple[np.ndarray, np.ndarray]:
    """The scalar verifiers' locate step over flagged residuals: ``(ok, position)``.

    ``position`` is the rounded residual ratio minus one, and ``ok`` marks
    the entries the scalar loop corrects: a residual not below float64's
    smallest normal, a finite ratio within 0.25 of an integer (``np.rint``
    rounds half to even, as Python's ``round`` does), and a position in
    ``[0, extent)``.  ``position`` is 0 wherever ``ok`` is False.
    """
    usable = np.abs(res1) >= np.finfo(np.float64).tiny
    ratio = np.divide(res2, res1, out=np.full_like(res1, np.nan), where=usable)
    rounded = np.rint(ratio)
    with np.errstate(invalid="ignore"):  # inf - inf on an infinite ratio
        near = np.abs(ratio - rounded) <= 0.25
    position = rounded - 1
    ok = near & (position >= 0) & (position < extent)
    return ok, np.where(ok, position, 0).astype(np.intp)


def _apply_located(
    a: np.ndarray,
    verdicts: list[ChecksumVerdict],
    trial: np.ndarray,
    ok: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    delta: np.ndarray,
) -> None:
    """Correct ``a`` in place and fill the verdicts from the flagged entries.

    ``trial`` and ``ok`` cover every flagged entry in the scalar loop's
    order; ``rows``, ``cols`` and ``delta`` cover the ``ok`` ones.  Each
    element gets ``a + delta`` in float64, cast back on assignment, as the
    scalar ``a[row, col] += delta`` does; no two entries share an element.
    """
    n_trials = len(verdicts)
    detected = np.bincount(trial, minlength=n_trials)
    uncorrectable = np.bincount(trial[~ok], minlength=n_trials)
    for t in np.flatnonzero(detected).tolist():
        verdicts[t].detected = int(detected[t])
        verdicts[t].uncorrectable = int(uncorrectable[t])
    fixed = trial[ok]
    a[fixed, rows, cols] = a[fixed, rows, cols] + delta
    for t, row, col, d in zip(fixed.tolist(), rows.tolist(), cols.tolist(), delta.tolist()):
        verdicts[t].corrections.append(Correction(row=row, col=col, delta=d))


def verify_strided_checksums_stacked(
    s: np.ndarray,
    s_check1: np.ndarray,
    s_check2: np.ndarray,
    stride: int = 8,
    atol: float = 1e-2,
    rtol: float = 0.0,
    magnitude: np.ndarray | None = None,
) -> list[ChecksumVerdict]:
    """Per-trial verify/correct of a stacked ``S`` (T x Br x Bc), in place.

    Detection runs once over the stacked residuals.  Every flagged
    (row, class) of every finite trial is then located and corrected in one
    vectorised pass, so each trial's corrected slice and verdict (fields and
    corrections in order) are bitwise what :func:`verify_strided_checksums`
    gives on that slice.  A trial holding a NaN or inf element takes the
    scalar routine on its own slice *view*: its non-finite repair works
    element by element, and its corrections land in the stacked array.
    """
    s = np.asarray(s)
    finite, over, res1 = _strided_detect(s, s_check1, stride, atol, rtol, magnitude)
    verdicts = _residual_verdicts(res1)
    over &= finite[:, None, None]
    flagged = np.flatnonzero(over.reshape(s.shape[0], -1).any(axis=1))
    if flagged.size:
        res2 = np.asarray(s_check2, dtype=np.float64)[flagged] - _strided_weighted_fold(
            s[flagged], stride
        )
        k, row, cls = np.nonzero(over[flagged])
        trial = flagged[k]
        cols = s.shape[-1]
        ok, group = _locate(res1[trial, row, cls], res2[k, row, cls], _num_groups(cols, stride))
        col = cls + stride * group
        ok &= col < cols
        _apply_located(s, verdicts, trial, ok, row[ok], col[ok], res1[trial, row, cls][ok])
    for t in np.flatnonzero(~finite).tolist():
        # The original (pre-maximum) magnitude slice is forwarded because the
        # scalar routine applies the strided |S| floor itself.
        verdicts[t] = verify_strided_checksums(
            s[t],
            s_check1[t],
            s_check2[t],
            stride=stride,
            atol=atol,
            rtol=rtol,
            magnitude=None if magnitude is None else magnitude[t],
        )
    return verdicts
