"""End-to-end checks of the benchmark: metric coverage, output checks, refusals."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_names(key: str) -> set[str]:
    return {metric["name"] for metric in BENCH[key]}


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_workload_produces_every_metric_at_tiny_size(workload, trace):
    done = run_benchmark(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", trace, "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = bench_names("per_layer" if trace == "1" else "end_to_end")
    assert set(result["metrics"]) == wanted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace == "0":
        assert all(result["metrics"][name]["value"] > 0 for name in wanted)


def test_benchmark_json_lists_only_metrics_the_code_reports():
    tracer = wl.Tracer()
    reported = set(wl.layer_metrics(tracer, 1)) | set(wl.scheme_latency_metrics({}))
    assert reported <= bench_names("per_layer")


def _first_rounds_digest(loop: wl.AttentionLoop) -> str:
    loop.first(wl.Tally())
    loop.warm_up(wl.Tally())
    return loop.digest_hex()


def test_tampered_attention_output_fails_the_digest_check():
    pins = {"env": {"attention-paper-shape": _first_rounds_digest(wl.AttentionLoop(0, "tiny"))}}
    ok, message = run.digest_verdict(
        "attention-paper-shape", run.DEFAULT_SEED, "full",
        _first_rounds_digest(wl.AttentionLoop(0, "tiny")), "env", pins,
    )
    assert ok and message == "match"

    tampered = wl.AttentionLoop(0, "tiny")
    forward = tampered.schemes["efta"].forward

    def one_ulp_off(*args, **kwargs):
        out, report = forward(*args, **kwargs)
        out = out.copy()
        out.flat[0] = np.nextafter(out.flat[0], np.float32(np.inf))
        return out, report

    tampered.schemes["efta"].forward = one_ulp_off
    ok, message = run.digest_verdict(
        "attention-paper-shape", run.DEFAULT_SEED, "full",
        _first_rounds_digest(tampered), "env", pins,
    )
    assert not ok and message.startswith("MISMATCH")


def test_digests_are_checked_for_the_default_seed_only():
    pins = {"env": {"w": "abc"}}
    assert run.digest_verdict("w", run.DEFAULT_SEED + 1, "full", "other", "env", pins)[0]
    assert run.digest_verdict("w", run.DEFAULT_SEED, "full", "other", "elsewhere", pins)[0]
    assert not run.digest_verdict("w", run.DEFAULT_SEED, "full", "other", "env", pins)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", "attention-paper-shape", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no program to measure" in done.stderr
