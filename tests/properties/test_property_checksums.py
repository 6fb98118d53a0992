"""Property-based tests of the ABFT checksum invariants (hypothesis)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.gemm import checksum as checksum_module
from repro.gemm.checksum import (
    encode_column_checksums,
    encode_row_checksums,
    encode_strided_row_checksums,
    strided_sums,
    verify_column_checksums,
    verify_column_checksums_stacked,
    verify_strided_checksums,
    verify_strided_checksums_stacked,
)

SETTINGS = dict(max_examples=30, deadline=None)

finite_floats = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False, width=32)


def matrices(min_rows=2, max_rows=12, min_cols=2, max_cols=24):
    return hnp.arrays(
        dtype=np.float32,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=finite_floats,
    )


class TestTraditionalChecksumProperties:
    @given(a=matrices())
    @settings(**SETTINGS)
    def test_column_checksum_is_linear_in_rows(self, a):
        c1, c2 = encode_column_checksums(a)
        np.testing.assert_allclose(c1, a.sum(axis=0), rtol=1e-4, atol=1e-4)
        weights = np.arange(1, a.shape[0] + 1, dtype=np.float64)
        np.testing.assert_allclose(c2, weights @ a.astype(np.float64), rtol=1e-4, atol=1e-3)

    @given(
        lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        rows=st.integers(1, 12),
        cols=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(**SETTINGS)
    def test_column_encoding_passes_leading_axes_through(self, lead, rows, cols, seed):
        # The coverage batch kernel encodes its whole (trials, M, K) stack at
        # once: every slice must be bitwise its own 2D encoding.
        stack = np.random.default_rng(seed).standard_normal((*lead, rows, cols))
        c1, c2 = encode_column_checksums(stack)
        assert c1.shape == c2.shape == (*lead, cols)
        for index in np.ndindex(*lead):
            s1, s2 = encode_column_checksums(stack[index])
            assert c1[index].tobytes() == s1.tobytes()
            assert c2[index].tobytes() == s2.tobytes()

    @given(b=matrices())
    @settings(**SETTINGS)
    def test_row_checksum_is_linear_in_columns(self, b):
        r1, _ = encode_row_checksums(b)
        np.testing.assert_allclose(r1, b.sum(axis=1), rtol=1e-4, atol=1e-4)

    @given(a=matrices(max_cols=12), data=st.data())
    @settings(**SETTINGS)
    def test_any_single_large_error_is_corrected(self, a, data):
        b = np.eye(a.shape[1], dtype=np.float32)  # identity keeps the algebra exact
        c = (a @ b).astype(np.float64)
        c1, c2 = encode_column_checksums(a)
        check1 = c1 @ b
        check2 = c2 @ b
        row = data.draw(st.integers(0, c.shape[0] - 1))
        col = data.draw(st.integers(0, c.shape[1] - 1))
        expected = c.copy()
        c[row, col] += 100.0
        verdict = verify_column_checksums(c, check1, check2, atol=1e-3, rtol=1e-3)
        assert verdict.corrected == 1
        np.testing.assert_allclose(c, expected, atol=1e-2)


class TestStridedChecksumProperties:
    @given(kt=matrices(min_rows=2, max_rows=10, min_cols=2, max_cols=40), stride=st.sampled_from([4, 8]))
    @settings(**SETTINGS)
    def test_checksum_totals_preserve_row_sums(self, kt, stride):
        # Folding at any stride preserves the total sum along the folded axis.
        c1, _ = encode_strided_row_checksums(kt, stride)
        np.testing.assert_allclose(c1.sum(axis=1), kt.sum(axis=1), rtol=1e-4, atol=1e-3)

    @given(s=matrices(min_cols=8, max_cols=40), stride=st.sampled_from([4, 8]))
    @settings(**SETTINGS)
    def test_strided_sums_match_encoding(self, s, stride):
        sum1, sum2 = strided_sums(s, stride)
        c1, c2 = encode_strided_row_checksums(s, stride)
        np.testing.assert_allclose(sum1, c1, rtol=1e-4, atol=1e-3)
        np.testing.assert_allclose(sum2, c2, rtol=1e-4, atol=1e-3)

    @given(
        q=matrices(min_rows=2, max_rows=8, min_cols=8, max_cols=16),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_checksum_gemm_commutes_with_fold(self, q, data):
        # Equation (14): folding the output equals multiplying by the folded operand.
        cols = data.draw(st.integers(8, 32))
        rng = np.random.default_rng(0)
        k = rng.standard_normal((cols, q.shape[1])).astype(np.float32)
        s = (q.astype(np.float64) @ k.T.astype(np.float64))
        kc1, _ = encode_strided_row_checksums(k.T, 8)
        check = q.astype(np.float64) @ kc1.astype(np.float64)
        fold, _ = strided_sums(s, 8)
        np.testing.assert_allclose(check, fold, rtol=1e-4, atol=1e-3)

    @given(
        s=matrices(min_rows=2, max_rows=8, min_cols=9, max_cols=40),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_single_error_corrected_at_any_position(self, s, data):
        stride = 8
        check1, check2 = strided_sums(s, stride)
        row = data.draw(st.integers(0, s.shape[0] - 1))
        col = data.draw(st.integers(0, s.shape[1] - 1))
        corrupted = s.copy()
        corrupted[row, col] += 500.0
        verdict = verify_strided_checksums(
            corrupted, check1, check2, stride=stride, atol=1e-3, rtol=1e-3
        )
        assert verdict.corrected == 1
        assert verdict.corrections[0].row == row
        assert verdict.corrections[0].col == col
        np.testing.assert_allclose(corrupted, s, atol=1e-2)

    @given(s=matrices(min_cols=8, max_cols=32))
    @settings(**SETTINGS)
    def test_clean_verification_never_alarms_with_exact_checksums(self, s):
        check1, check2 = strided_sums(s, 8)
        verdict = verify_strided_checksums(s.copy(), check1, check2, stride=8, atol=1e-3, rtol=1e-3)
        assert verdict.clean


#: Errors a stacked-verifier case injects into one trial.  ``spike``: one large
#: error.  ``pair``: two errors in one row's stride class (strided) or in one
#: column (element), which the locate ratio cannot resolve.  ``bad_ratio``: a
#: spike whose weighted checksum is shifted so the ratio falls out of range.
#: ``nan`` / ``inf``: a non-finite element.
ERROR_KINDS = ("spike", "pair", "bad_ratio", "nan", "inf")


def _verdict_fields(verdict) -> tuple:
    """Every verdict field, NaN-safe, with the corrections in order."""
    corrections = [(c.row, c.col, repr(c.delta)) for c in verdict.corrections]
    return verdict.detected, verdict.uncorrectable, repr(verdict.max_residual), corrections


def _inject(stack, check2, errors, stride=None) -> None:
    """Apply ``errors`` -- ``(trial, kind, row, col, size)`` -- in place.

    ``stride`` is the strided scheme's; ``None`` means column checksums.
    """
    cols = stack.shape[-1]
    for t, kind, row, col, size in errors:
        if kind in ("nan", "inf"):
            stack[t, row, col] = np.nan if kind == "nan" else -np.inf
            continue
        stack[t, row, col] += size
        if kind == "pair" and stride:
            stack[t, row, (col + stride) % cols] += 0.37 * size
        elif kind == "pair":
            stack[t, (row + 1) % stack.shape[1], col] += 0.37 * size
        elif kind == "bad_ratio" and stride:
            check2[t, row, col % stride] -= 100.0 * size
        elif kind == "bad_ratio":
            check2[t, col] -= 100.0 * size


@st.composite
def stacked_cases(draw):
    trials = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 41))
    errors = [
        (t, draw(st.sampled_from(ERROR_KINDS)), draw(st.integers(0, rows - 1)),
         draw(st.integers(0, cols - 1)), draw(st.sampled_from([-400.0, 60.0, 900.0])))
        for t in range(trials)
        for _ in range(draw(st.integers(0, 3)))
    ]
    return trials, rows, cols, errors, draw(st.integers(0, 2**32 - 1))


def _check_strided(trials, rows, cols, errors, seed, stride, with_magnitude):
    """Stacked strided verify equals the scalar one per slice; returns its verdicts
    and the trials that took the scalar fallback.
    """
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((trials, rows, cols)).astype(np.float32)
    check1, check2 = strided_sums(s, stride)
    magnitude = np.abs(rng.standard_normal((trials, rows, stride))) if with_magnitude else None
    _inject(s, check2, errors, stride)
    nonfinite = {t for t in range(trials) if not np.isfinite(s[t]).all()}
    expected = s.copy()
    scalar = [
        verify_strided_checksums(
            expected[t], check1[t], check2[t], stride=stride, atol=1e-3, rtol=1e-3,
            magnitude=None if magnitude is None else magnitude[t],
        )
        for t in range(trials)
    ]
    with mock.patch.object(
        checksum_module, "verify_strided_checksums", wraps=verify_strided_checksums
    ) as fallback:
        stacked = verify_strided_checksums_stacked(
            s, check1, check2, stride=stride, atol=1e-3, rtol=1e-3, magnitude=magnitude
        )
    assert s.tobytes() == expected.tobytes()
    assert [_verdict_fields(v) for v in stacked] == [_verdict_fields(v) for v in scalar]
    # Only the trials holding a NaN or inf take the scalar routine.
    assert fallback.call_count == len(nonfinite)
    return stacked, nonfinite


def _check_column(trials, rows, cols, errors, seed):
    """Stacked column verify equals the scalar one per slice; returns the verdicts."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((trials, rows, cols)).astype(np.float32)
    check1 = c.sum(axis=1, dtype=np.float64)
    check2 = (np.arange(1, rows + 1)[:, None] * c.astype(np.float64)).sum(axis=1)
    _inject(c, check2, errors)
    expected = c.copy()
    scalar = [
        verify_column_checksums(expected[t], check1[t], check2[t], atol=1e-3, rtol=1e-3)
        for t in range(trials)
    ]
    stacked = verify_column_checksums_stacked(c, check1, check2, atol=1e-3, rtol=1e-3)
    assert c.tobytes() == expected.tobytes()
    assert [_verdict_fields(v) for v in stacked] == [_verdict_fields(v) for v in scalar]
    return stacked


class TestStackedVerifiersMatchScalar:
    """The stacked verifiers equal their scalar routines on every slice."""

    @given(case=stacked_cases(), stride=st.sampled_from([4, 8]), with_magnitude=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_strided_stack_matches_scalar_per_slice(self, case, stride, with_magnitude):
        _check_strided(*case, stride, with_magnitude)

    @given(case=stacked_cases())
    @settings(max_examples=60, deadline=None)
    def test_column_stack_matches_scalar_per_slice(self, case):
        _check_column(*case)

    #: One trial per path on a ragged 37-column block: clean, a corrected
    #: spike, an unresolvable pair, an out-of-range ratio, NaN and inf.
    PINNED = [
        (1, "spike", 2, 11, 900.0),
        (2, "pair", 0, 3, -400.0),
        (3, "bad_ratio", 4, 36, 60.0),
        (4, "nan", 1, 20, 0.0),
        (5, "inf", 3, 0, 0.0),
    ]

    @pytest.mark.parametrize("with_magnitude", [False, True])
    def test_strided_stack_runs_both_paths(self, with_magnitude):
        verdicts, fallback_trials = _check_strided(6, 5, 37, self.PINNED, 7, 8, with_magnitude)
        assert fallback_trials == {4, 5}
        assert verdicts[0].clean
        # The vectorised pass corrected trial 1 and gave up on trials 2 and 3.
        assert verdicts[1].corrected == 1 and verdicts[1].uncorrectable == 0
        assert verdicts[2].uncorrectable >= 1
        assert verdicts[3].uncorrectable == 1 and verdicts[3].corrected == 0
        # The scalar fallback repaired the NaN and the inf.
        assert verdicts[4].corrected >= 1 and verdicts[5].corrected >= 1

    def test_column_stack_keeps_scalar_nonfinite_behaviour(self):
        verdicts = _check_column(6, 5, 37, self.PINNED, 7)
        assert verdicts[0].clean
        assert verdicts[1].corrected == 1
        assert verdicts[2].uncorrectable >= 1
        assert verdicts[3].uncorrectable == 1
        # A NaN or inf element poisons its column's sums: never flagged.
        assert verdicts[4].clean and verdicts[5].clean
