"""Every scheme at seq 2048: clean calls stay quiet and close, a GEMM-I SEU is detected.

One head, head dim 64, block 64.  At this length a panel span holds one
64-row panel (its score block is 64 x 2048), and the decoupled baseline's
``seq x keys`` scratch is 4M elements per matrix.  ``slow``: about 2 s.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.config import AttentionConfig
from repro.core.schemes import build_scheme
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite

SEQ = 2048
#: perfbench's bound on a clean output's distance from the unprotected one.
TOLERANCE = 0.02

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def long_inputs():
    rng = np.random.default_rng(2048)
    q, k, v = (rng.standard_normal((1, SEQ, 64)).astype(np.float32) for _ in range(3))
    return AttentionConfig(SEQ, 64, block_size=64), q, k, v


def _forward(name, long_inputs, injector=None):
    config, q, k, v = long_inputs
    with warnings.catch_warnings():
        # The decoupled weighted checksums overflow FP16 at this length.
        warnings.simplefilter("ignore", RuntimeWarning)
        return build_scheme(name, config).forward(q, k, v, injector)


def test_clean_calls_raise_no_alarm_and_stay_close(long_inputs):
    base, report = _forward("none", long_inputs)
    assert not report.detected_any
    for name in ("efta", "efta_unified", "decoupled"):
        out, report = _forward(name, long_inputs)
        assert not report.detected_any, (name, report.summary())
        err = float(np.abs(out - base).max() / np.abs(base).max())
        assert err < TOLERANCE, (name, err)


@pytest.mark.parametrize("name", ["efta", "efta_unified", "decoupled"])
@pytest.mark.parametrize("seed", [0, 1])
def test_a_gemm_one_exponent_flip_is_detected(long_inputs, name, seed):
    # The decoupled baseline detects it but cannot locate it past its FP16
    # weighted-checksum overflow, so only detection is asserted.
    injector = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=seed, block=(16, 16), bit=14)
    _, report = _forward(name, long_inputs, injector)
    assert len(injector.records) == 1
    assert report.detected_any, report.summary()
