#!/usr/bin/env python3
"""The repository benchmark: protected attention, fault campaigns and sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload attention-paper-shape --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics.  Each metric is printed with its unit and sample count,
then the output checks; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Every measurement runs in a fresh ``measure.py`` process with one BLAS/OpenMP
thread and ``src`` on ``PYTHONPATH``, so the benchmark measures the source
tree it sits in.  Set-up time is the median over several fresh processes.
"""

from __future__ import annotations

import os

#: One BLAS/OpenMP thread for every benchmark process, workers included: with
#: the default thread pools the same 384-trial process-pool run took anywhere
#: from 5.4 s to 18.4 s on a 2-core host, against 1.7-1.8 s with one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
#: The seed whose outputs are pinned in digests.json.
DEFAULT_SEED = 0
#: Set-up samples per untraced run: the run itself plus set-up-only processes.
SETUP_SAMPLES = 3
#: Seconds a measurement process may take beyond its measuring time.
GRACE_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, crashed child)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_TRIAL_BATCH", None)  # the default trial batch is part of the workload
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # The fp16 casts overflow by design; keep the expected warning out of the report.
    env["PYTHONWARNINGS"] = "ignore::RuntimeWarning"
    return env


def launch(workload: str, seed: int, seconds: float, mode: str, size: str, workdir: Path) -> dict:
    """Run one ``measure.py`` process to completion and return its JSON result."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / f"{mode}.json"
    log = workdir / f"{mode}.log"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--workdir", str(workdir), "--out", str(out), "--size", size,
    ]
    with open(log, "w") as stderr:
        launched = time.monotonic()
        proc = subprocess.Popen(
            command + ["--launched", repr(launched)],
            cwd=ROOT, env=child_env(), stdout=stderr, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=seconds + GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0 or not out.exists():
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{workload} {mode} process ended with {code}:\n{tail}")
    return json.loads(out.read_text())


def digest_verdict(workload: str, seed: int, size: str, digest: str | None,
                   pin_key: str, pins: dict) -> tuple[bool, str]:
    """(ok, message) of the pinned-output check; only the default seed is pinned."""
    if seed != DEFAULT_SEED or size != "full":
        return True, "skipped (digests are pinned for the default seed only)"
    pinned = pins.get(pin_key, {}).get(workload)
    if pinned is None:
        return True, f"skipped (no digest pinned for environment {pin_key})"
    if digest != pinned:
        return False, f"MISMATCH: got {digest}, pinned {pinned}"
    return True, "match"


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def run_workload(workload, seed: int, seconds: float, trace: bool, size: str, bench: dict) -> dict:
    """Measure one workload; returns its result object plus report lines."""
    nproc = os.cpu_count() or 1
    if workload.workers * THREADS > nproc:
        raise BenchError(
            f"{workload.name} needs {workload.workers} workers x {THREADS} threads "
            f"but this host has {nproc} CPUs"
        )
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    load_before = os.getloadavg()
    try:
        if trace:
            child = launch(workload.name, seed, seconds, "trace", size, workdir)
            setup = [child["setup_s"]]
            spans = workdir / "spans.jsonl.gz"
            if spans.exists():
                (WORK / "traces").mkdir(parents=True, exist_ok=True)
                shutil.move(spans, WORK / "traces" / f"{workload.name}.spans.jsonl.gz")
        else:
            setup = [
                launch(workload.name, seed, seconds, "setup", size, workdir)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            child = launch(workload.name, seed, seconds, "run", size, workdir)
            setup.append(child["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    env = child["env"]
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digest_ok, digest_msg = digest_verdict(
        workload.name, seed, size, child["digest"], env["pin_key"], pins
    )
    attempted, failed = child["attempted"], child["failed"]
    values: dict[str, tuple[float, int]] = {}
    if trace:
        for name, value in child["layers"].items():
            values[name] = (value, 1)
        values["failed_frac"] = (failed / attempted if attempted else 0.0, attempted)
        values["core.false_alarms"] = (float(child["false_alarms"]), attempted)
        wanted = bench["per_layer"]
    else:
        values["setup_s"] = (statistics.median(setup), len(setup))
        values["ops_per_s"] = (child["ops_per_s"], child["units"])
        values["peak_rss_mb"] = (child["peak_rss_mb"], 1)
        wanted = bench["end_to_end"]
    missing_metrics = [m["name"] for m in wanted if m["name"] not in values]
    missing_sites = child.get("missing_sites", [])
    checks = [
        ("failed operations", failed == 0, f"{failed} of {attempted}"),
        ("false alarms on clean calls", child["false_alarms"] == 0, str(child["false_alarms"])),
        ("pinned output digest", digest_ok, digest_msg),
        ("metrics produced", not missing_metrics, ", ".join(missing_metrics) or "all"),
    ]
    if trace:
        checks.append(("wrapped call sites reached", not missing_sites,
                       ", ".join(missing_sites) or "all"))

    lines = [
        f"== {workload.name} (seed {seed}, {seconds:g} s, trace {int(trace)})",
        f"env: nproc={os.cpu_count()} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} {env['machine']}/{env['simd']} threads={THREADS} "
        f"workers={workload.workers}",
        "load average before: {:.2f} {:.2f} {:.2f}".format(*load_before),
        "load average after:  {:.2f} {:.2f} {:.2f}".format(*load_after),
    ]
    metrics = {}
    for spec in wanted:
        if spec["name"] not in values:
            continue
        value, samples = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        lines.append(f"  {spec['name']:<44} {value:>14.6g} {spec['unit']:<8} n={samples}")
    for name, info in sorted(child.get("schemes", {}).items()):
        lines.append(
            f"  {name + '.forward_ms p50/p90':<44} {info['p50_ms']:>7.2f} / {info['p90_ms']:.2f} ms"
            f"  n={info['n']}"
        )
    if child.get("read_records_per_s"):
        lines.append(f"  {'store.query_records_per_s':<44} {child['read_records_per_s']:>14.6g} 1/s")
    for label, ok, detail in checks:
        lines.append(f"check {label}: {'ok' if ok else 'FAILED'} ({detail})")
    for message in child.get("messages", []):
        lines.append(f"  failure: {message}")
    return {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
        "digest": child["digest"],
        "pin_key": env["pin_key"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every input, for the benchmark's own tests")
    parser.add_argument("--write-digests", action="store_true",
                        help="pin this run's output digests for the default seed")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "repro" / "__init__.py").exists():
            raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
        bench = load_benchmark()
        import workloads as wl

        names = [w["name"] for w in bench["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        selected = names if args.workload == "all" else [args.workload]
        seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
        results = {
            name: run_workload(
                wl.WORKLOADS[name], args.seed, seconds, bool(args.trace), args.size, bench
            )
            for name in selected
        }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    for result in results.values():
        print("\n".join(result["lines"]))
    if args.write_digests:
        if args.seed != DEFAULT_SEED or args.size != "full":
            print("perfbench: --write-digests needs the default seed and size", file=sys.stderr)
            return 2
        pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        for name, result in results.items():
            pins.setdefault(result["pin_key"], {})[name] = result["digest"]
        DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")

    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {
            f"{name}/{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
