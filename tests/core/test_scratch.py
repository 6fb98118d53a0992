"""The scratch arena: frames, and kernels whose calls do not depend on their history.

The attention kernels take their large temporaries from one block per
thread (:mod:`repro.scratch`).  These tests pin the rule that makes that
safe: what a call returns never depends on what ran before it on the thread
and never shares memory with the block or with a later result, and a warm
call at the paper's shape makes no fresh ``seq x keys`` array.
"""

from __future__ import annotations

import multiprocessing
import threading
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from repro import scratch
from repro.attention.softmax import stable_softmax
from repro.core.config import AttentionConfig
from repro.core.dmr import dmr_row_softmax
from repro.core.schemes import build_scheme
from repro.core.traditional_abft import protected_matmul
from repro.fault.injector import FaultInjector, _BatchFaultRouter
from repro.fault.models import FaultSpec
from repro.fp.float16 import FP16Operand, fp16_quantize

SCHEMES = ("none", "efta", "efta_unified", "decoupled")
COUNTERS = ("detections", "corrections", "recomputations", "restorations", "uncorrectable")


def _on_fresh_thread(fn):
    """``fn()`` on a new thread, whose arena starts empty."""
    result = {}
    thread = threading.Thread(target=lambda: result.setdefault("value", fn()))
    thread.start()
    thread.join()
    return result["value"]


#: Float32 elements of a test take: 16 KB and one more element.
BIG = 4097


class TestArena:
    def test_outside_a_frame_take_is_a_fresh_array(self):
        a, b = scratch.take(BIG), scratch.take(BIG)
        assert not np.shares_memory(a, b)
        assert a.base is None

    def test_takes_are_aligned_contiguous_and_disjoint(self):
        with scratch.frame():
            scratch.take(1 << 20, np.uint8)  # regrow the block to hold the frames below
        with scratch.frame():
            views = [scratch.take(shape, dtype) for shape, dtype in (
                ((3, BIG), np.float32), (BIG, np.int64), ((2, 3, BIG), np.float64),
                (4 * BIG, np.bool_),
            )]
        for view in views:
            assert view.flags.c_contiguous and view.flags.writeable
            assert view.ctypes.data % scratch.ALIGNMENT == 0
            assert np.shares_memory(view, scratch._arena.block)
        for i, a in enumerate(views):
            for b in views[i + 1:]:
                assert not np.shares_memory(a, b)
        assert views[2].dtype == np.float64 and views[2].shape == (2, 3, BIG)

    def test_leaving_a_frame_gives_its_takes_back(self):
        with scratch.frame():
            scratch.take(1 << 20, np.uint8)
        with scratch.frame():
            first = scratch.take(BIG)
            with scratch.frame():
                inner = scratch.take(BIG)
            again = scratch.take(BIG)
        assert again.ctypes.data == inner.ctypes.data != first.ctypes.data

    def test_the_block_regrows_only_when_the_outermost_frame_exits(self):
        def run():
            sizes = []
            with scratch.frame():
                with scratch.frame():
                    big = scratch.take(1 << 16)
                    assert big.base is None  # past the empty block: a fresh array
                sizes.append(scratch._arena.block.size)
            sizes.append(scratch._arena.block.size)
            with scratch.frame():
                again = scratch.take(1 << 16)
                assert np.shares_memory(again, scratch._arena.block)
            return sizes

        before, after = _on_fresh_thread(run)
        assert before == 0 and after >= 4 * (1 << 16)

    def test_each_thread_has_its_own_block(self):
        with scratch.frame():
            scratch.take(BIG)
        mine = scratch._arena.block
        theirs = _on_fresh_thread(lambda: scratch._arena.block)
        assert theirs.size == 0 and mine.size > 0


def _fill_the_block():
    scratch._arena.block.fill(255)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_a_forked_worker_writes_its_own_copy_of_the_block():
    # The process executor forks its workers on Linux, after the parent may
    # have run kernels.
    with scratch.frame():
        scratch.take(BIG)
    with scratch.frame():
        mine = scratch.take(BIG)
        assert np.shares_memory(mine, scratch._arena.block)
        mine[:] = 1.0
        worker = multiprocessing.get_context("fork").Process(target=_fill_the_block)
        worker.start()
        worker.join(timeout=60)
        assert worker.exitcode == 0
        assert np.array_equal(mine, np.ones(BIG, dtype=np.float32))


# --------------------------------------------------------------------------- #
# (a) A call does not depend on the thread's history
# --------------------------------------------------------------------------- #
#: (seq_len, head_dim, block_size, key rows): a ragged column and row tail,
#: and more keys than ``seq_len`` with a one-row last panel.
SHAPES = ((136, 8, 16, 136), (65, 8, 16, 256))


def _calls() -> list[tuple]:
    """Every scheme x shape x trial count x (clean, pinned fault), interleaved."""
    calls = []
    for n_trials in (1, 3):
        for faulty in (False, True):
            for shape in SHAPES:
                for scheme in SCHEMES:
                    calls.append((scheme, shape, n_trials, faulty))
    # Alternate small and large working sets so that each call finds the
    # block holding another call's leftovers.
    return calls[::2] + calls[1::2][::-1]


def _call(scheme, shape, n_trials, faulty):
    seq, dim, block, keys = shape
    rng = np.random.default_rng([SCHEMES.index(scheme), seq, n_trials])
    q = rng.standard_normal((n_trials, seq, dim)).astype(np.float32)
    k, v = (rng.standard_normal((n_trials, keys, dim)).astype(np.float32) for _ in range(2))
    attention = build_scheme(scheme, AttentionConfig(seq, dim, block_size=block))
    injectors = [
        FaultInjector(
            specs=[FaultSpec(site, block=(1, 2), bit=14, dtype="fp16")] if faulty else [],
            seed=t,
        )
        for t, site in zip(range(n_trials), ("gemm_qk", "subtract_exp", "gemm_pv"))
    ]
    if n_trials == 1:
        out, report = attention.forward(q[0], k[0], v[0], injectors[0])
        out, reports = out[None], [report]
    else:
        out, reports = attention.forward_batched(q, k, v, _BatchFaultRouter(injectors))
    counters = [{key: dict(getattr(r, key)) for key in COUNTERS} for r in reports]
    # repr compares the NaN / inf values bit-14 flips record.
    return out.tobytes(), counters, [repr(inj.records) for inj in injectors]


def test_calls_do_not_depend_on_what_ran_before_them():
    calls = _calls()
    first = [_on_fresh_thread(lambda c=c: _call(*c)) for c in calls]
    interleaved = _on_fresh_thread(lambda: [_call(*c) for c in calls + calls])
    assert any("[]" != r for result in first for r in result[2])
    for i, result in enumerate(interleaved):
        assert result == first[i % len(calls)], calls[i % len(calls)]


# --------------------------------------------------------------------------- #
# (b) Nothing taken escapes
# --------------------------------------------------------------------------- #
def _public_results(seed: int) -> list[np.ndarray]:
    """One result of every public entry point that runs on the arena."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((96, 48)).astype(np.float32)
    b = rng.standard_normal((48, 80)).astype(np.float32)
    scores = rng.standard_normal((70, 90)).astype(np.float32)
    product, _ = protected_matmul(a, b, injector=None)
    results = [
        product,
        dmr_row_softmax(scores)[0],
        stable_softmax(scores),
        fp16_quantize(scores),
        FP16Operand(scores).values,
    ]
    cfg = AttentionConfig(72, 8, block_size=16)
    q, k, v = (rng.standard_normal((2, 72, 8)).astype(np.float32) for _ in range(3))
    for scheme in SCHEMES:
        results.append(build_scheme(scheme, cfg).forward(q, k, v)[0])
    return results


@pytest.mark.parametrize("in_frame", [False, True], ids=["outside", "inside-a-frame"])
def test_results_stay_put_and_share_no_memory(in_frame):
    def run():
        # A first round sizes the block, so the rounds below run on it.
        with scratch.frame() if in_frame else nullcontext():
            _public_results(2)
        with scratch.frame() if in_frame else nullcontext():
            block = scratch._arena.block
            kept = _public_results(0)
            copies = [r.copy() for r in kept]
            later = _public_results(1)
        assert scratch._arena.block is block
        return kept, copies, later, block

    kept, copies, later, block = _on_fresh_thread(run)
    assert block.size > 0
    for i, (result, copy) in enumerate(zip(kept, copies)):
        assert result.tobytes() == copy.tobytes(), i
        assert not np.shares_memory(result, block), i
        for other in later:
            assert not np.shares_memory(result, other), i


# --------------------------------------------------------------------------- #
# (c) A warm call at the paper's shape makes no fresh seq x keys array
# --------------------------------------------------------------------------- #
#: Traced bytes a warm call may allocate beyond what it started with.  One
#: fresh ``seq x keys`` float32 matrix is 1 MB, and the decoupled kernel
#: used to make several.
PEAK_BOUND = {"none": 2.5, "efta": 2.5, "efta_unified": 2.5, "decoupled": 2.0}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_warm_call_allocates_little(scheme):
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((2, 512, 64)).astype(np.float32) for _ in range(3))
    attention = build_scheme(scheme, AttentionConfig(512, 64, block_size=64))

    def traced_peak_mb():
        attention.forward(q, k, v)
        attention.forward(q, k, v)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            attention.forward(q, k, v)
            return (tracemalloc.get_traced_memory()[1] - start) / 2**20
        finally:
            tracemalloc.stop()

    assert _on_fresh_thread(traced_peak_mb) <= PEAK_BOUND[scheme]
