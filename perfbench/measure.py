"""Measurement process: runs one workload and writes its numbers as JSON.

Started by ``run.py`` (never imported by it), with one BLAS/OpenMP thread and
``src`` on ``PYTHONPATH``.  Modes:

* ``setup`` -- import, build, stop at the first completed forward or the
  first committed trial record; report that instant.
* ``run`` -- the untraced run: set-up and warm-up, then the closed loop for
  ``--seconds``.  Gives the end-to-end numbers.
* ``trace`` -- after set-up, half the time untraced and half with the timing
  wrappers installed.  Gives the per-layer numbers and the tracing overhead.

Usage: python3 perfbench/measure.py --workload NAME --seed N --seconds S
       --mode run|setup|trace --launched T --workdir DIR --out FILE [--size tiny]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import SpanIndex, Tracer

#: Share of a phase the read phase gets (at least one second).
READ_SHARE = 0.1


def environment() -> dict:
    """Versions that decide the bytes of a run, and the digest pin key made of them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    try:
        flags = Path("/proc/cpuinfo").read_text()
        simd = "avx512f" if " avx512f" in flags else ("avx2" if " avx2" in flags else "base")
    except OSError:
        simd = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "machine": platform.machine(),
        "simd": simd,
        "pin_key": f"numpy-{np.__version__}/{blas_id}/{platform.machine()}/{simd}",
    }


class Phase:
    """One timed stretch of closed-loop units."""

    def __init__(self) -> None:
        self.tally = wl.Tally()
        self.latencies: dict = {}
        self.cpu = wl.CpuClock()
        self.start = time.perf_counter()
        self.read_records = 0
        self.read_s = 0.0
        self.stats: dict = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def summary(self) -> dict:
        return {
            "ops": self.tally.ops,
            "ops_per_s": self.tally.ops_per_s(),
            "units": len(self.tally.units),
            "cpu_util": self.cpu.utilisation(),
            "read_records_per_s": self.read_records / self.read_s if self.read_s else 0.0,
        }


def run_phase(loop, workload: wl.Workload, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Closed-loop units for ``seconds`` (at least one), then the read phase if any."""
    phase = Phase()
    write_s = seconds * (1 - READ_SHARE) if workload.reads else seconds
    while not phase.tally.units or phase.elapsed() < write_s:
        loop.unit(phase.tally, phase.latencies, tracer)
    phase.stats = phase.summary()  # before the reads, which are not operations
    if workload.reads:
        phase.read_records, phase.read_s = loop.read_phase(
            max(1.0, READ_SHARE * seconds), phase.tally
        )
        phase.stats["read_records_per_s"] = phase.summary()["read_records_per_s"]
    return phase


def measure(workload: wl.Workload, args) -> dict:
    if workload.executor is None:
        loop = wl.AttentionLoop(args.seed, args.size)
    else:
        loop = wl.ExperimentLoop(workload, args.seed, args.size, Path(args.workdir))
    if args.mode == "setup":
        return {"setup_s": loop.setup_only() - args.launched}

    kernels = not workload.parallel
    warm = wl.Tally()
    setup_tracer = Tracer("setup")
    installer = wl.install(setup_tracer, kernels) if args.mode == "trace" else None
    try:
        stamp = loop.first(warm)
    finally:
        if installer is not None:
            installer.uninstall()
    loop.warm_up(warm)
    out = {"setup_s": stamp - args.launched}
    tallies = [warm]

    if args.mode == "run":
        phase = run_phase(loop, workload, args.seconds)
        tallies.append(phase.tally)
        out.update(phase.stats)
        out["schemes"] = {
            name: {
                "p50_ms": 1e3 * wl.percentile(values, 50),
                "p90_ms": 1e3 * wl.percentile(values, 90),
                "n": len(values),
            }
            for name, values in phase.latencies.items()
        }
    else:
        plain = run_phase(loop, workload, args.seconds / 2)
        gaps_from, bytes_from, reps_from = len(loop.commit_gaps), loop.bytes_written, loop.reps
        tracer = Tracer(f"{workload.name}-{args.seed}")
        installer = wl.install(tracer, kernels)
        try:
            traced = run_phase(loop, workload, args.seconds / 2, tracer)
        finally:
            installer.uninstall()
        tallies += [plain.tally, traced.tally]
        index = SpanIndex(tracer.spans)
        layers = wl.layer_metrics(tracer, traced.tally.ops)
        layers.update(wl.scheme_latency_metrics(plain.latencies))
        gaps = [1e3 * g for g in loop.commit_gaps[gaps_from:]]
        traced_trials = (loop.reps - reps_from) * loop.expected
        rate, traced_rate = plain.stats["ops_per_s"], traced.stats["ops_per_s"]
        layers.update(
            {
                "transformer.init.ms": SpanIndex(setup_tracer.spans).total_ms("transformer.init"),
                "exec.commit_gap_ms_p50": wl.percentile(gaps, 50),
                "exec.commit_gap_ms_p90": wl.percentile(gaps, 90),
                "store.bytes_written": (
                    (loop.bytes_written - bytes_from) / traced_trials
                    if traced_trials
                    else 0.0
                ),
                "store.read.ms": (
                    index.total_ms("store.read") / traced.read_records if traced.read_records else 0.0
                ),
                "store.query_records_per_s": plain.stats["read_records_per_s"],
                "proc.cpu_util": plain.stats["cpu_util"],
                "trace.overhead_pct": 100.0 * (rate / traced_rate - 1.0) if traced_rate else 0.0,
            }
        )
        fracs = loop.uncorrected_frac()
        layers.update({f"core.uncorrected_frac.{s}": fracs.get(s, 0.0) for s in wl.PROTECTED})
        out["layers"] = layers
        out["missing_sites"] = wl.missing_sites(tracer, workload)
        tracer.dump(Path(args.workdir) / "spans.jsonl.gz")

    out["digest"] = loop.digest_hex()
    out["attempted"] = sum(t.attempted for t in tallies)
    out["failed"] = sum(t.failed for t in tallies)
    out["false_alarms"] = sum(t.false_alarms for t in tallies)
    out["messages"] = [m for t in tallies for m in t.messages][:5]
    out["peak_rss_mb"] = wl.peak_rss_mb()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="the parent's time.monotonic() when it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    result = measure(wl.WORKLOADS[args.workload], args)
    result["env"] = environment()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
