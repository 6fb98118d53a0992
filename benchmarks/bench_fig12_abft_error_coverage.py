"""Figure 12: error coverage and detection/false-alarm behaviour of strided ABFT.

Left plot: fraction of fault events corrected by the 8-wide tensor checksum vs
the traditional single-column checksum, as a function of the computational bit
error rate.  Right plot: fault-detection rate and false-alarm rate of the
strided checksum as a function of the relative error threshold.

Both experiments run as one unified :class:`~repro.exec.spec.ExperimentSpec`
each (the left plot is a BER x scheme sweep grid, the right a single
campaign), so the exact same specs can be run on any executor backend from
the command line::

    python -m repro run fig12_spec.json --executor process --workers 8 --results out/
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_table, format_threshold_sweep
from repro.exec import ExperimentSpec, run_experiment

from common import emit

#: Error coverage read off Figure 12 (left).
PAPER_COVERAGE = {
    "tensor": {1e-8: 0.96, 5e-8: 0.94, 1e-7: 0.925},
    "element": {1e-8: 0.62, 5e-8: 0.55, 1e-7: 0.48},
}

BIT_ERROR_RATES = [1e-8, 5e-8, 1e-7]
THRESHOLDS = [0.01, 0.1, 0.2, 0.3, 0.4, 0.48, 0.6, 0.8, 1.0]
N_TRIALS = 40

#: The whole left plot as one sweep spec: scheme x BER, common random numbers.
COVERAGE_EXPERIMENT = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=N_TRIALS,
    seed=7,
    grid={"bit_error_rate": BIT_ERROR_RATES, "scheme": ["tensor", "element"]},
    name="fig12-coverage",
)


@pytest.fixture(scope="module")
def coverage_results():
    # Axis-sorted keys: (bit_error_rate, scheme) -> CampaignResult.
    return run_experiment(COVERAGE_EXPERIMENT).results_by_point()


def test_figure12_left_error_coverage(coverage_results):
    rows = []
    for ber in BIT_ERROR_RATES:
        rows.append(
            [
                f"{ber:.0e}",
                round(coverage_results[(ber, "tensor")].coverage, 2),
                PAPER_COVERAGE["tensor"][ber],
                round(coverage_results[(ber, "element")].coverage, 2),
                PAPER_COVERAGE["element"][ber],
            ]
        )
    table = format_table(
        ["BER", "tensor coverage", "paper", "element coverage", "paper"],
        rows,
        title="Figure 12 (left): ABFT error coverage vs computational bit error rate",
    )
    emit("Figure 12 (left)", table)

    for ber in BIT_ERROR_RATES:
        tensor = coverage_results[(ber, "tensor")].coverage
        element = coverage_results[(ber, "element")].coverage
        assert tensor > element + 0.2, "tensor checksum must dominate"
        assert tensor > 0.55
        assert element < 0.6


def test_figure12_right_detection_vs_threshold():
    spec = ExperimentSpec(
        campaign="abft_detection_sweep",
        n_trials=60,
        seed=8,
        params={"thresholds": THRESHOLDS},
        name="fig12-threshold-sweep",
    )
    points = run_experiment(spec).result
    emit("Figure 12 (right)", format_threshold_sweep(points))
    detection = {p.threshold: p.detection_rate for p in points}
    false_alarm = {p.threshold: p.false_alarm_rate for p in points}
    # Both curves decrease with the threshold; tiny thresholds alarm on FP16
    # round-off, and around the paper's operating point (~0.5) the false-alarm
    # rate has collapsed while detection remains substantial.
    assert false_alarm[0.01] > 0.9
    assert false_alarm[0.48] < 0.2
    assert detection[0.01] == 1.0
    assert detection[0.48] > 0.5
    assert detection[1.0] <= detection[0.1]


@pytest.mark.benchmark(group="fig12")
def test_benchmark_coverage_trial(benchmark):
    """Time one tensor-checksum coverage campaign batch (5 trials)."""
    spec = ExperimentSpec(
        campaign="abft_error_coverage",
        n_trials=5,
        seed=3,
        params={"bit_error_rate": 1e-7, "scheme": "tensor", "rows": 64, "cols": 64},
    )
    result = benchmark(lambda: run_experiment(spec).result)
    assert 0.0 <= result.coverage <= 1.0
