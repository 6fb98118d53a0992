"""The benchmark's workloads, their output checks and their per-layer metrics.

Every workload is a closed loop with one caller, driven only through public
entry points of ``repro``:

* ``attention-paper-shape`` calls ``build_scheme(s, cfg).forward`` for the
  four protection schemes in turn (one *round*); rounds alternate fault-free
  and single-SEU calls.  An operation is one forward call.
* ``campaign-transformer`` and ``sweep-small-trials`` call
  ``run_experiment`` on a fixed spec over and over (one *rep* each,
  into a fresh results path), and ``sweep-small-trials`` then reads its
  results back through ``query_records`` / ``point_records``.  An operation
  is one committed trial.

Inputs come only from the workload seed.  This module runs inside the
measurement process that ``measure.py`` starts; it imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tracing import Installer, SpanIndex, Tracer

SCHEMES = ("none", "efta", "efta_unified", "decoupled")
PROTECTED = ("efta", "efta_unified", "decoupled")
#: Relative deviation from the clean output above which an SEU counts as
#: uncorrected (the transformer campaign's correction_tol).  Uncorrected SEUs
#: are a per-layer rate, not failures: EFTA leaves about 1 in 40 GEMM-I SEUs
#: of this workload uncorrected and the decoupled baseline 10-25% (some as
#: NaN), so counting them as failures would fail every run.
TOLERANCE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``None`` for the attention loop; otherwise the ``run_experiment`` backend.
    executor: str | None = None
    store: str | None = None
    workers: int = 1
    #: Whether a read phase follows the writes.
    reads: bool = False
    #: (span group, binding site) pairs the traced run must see called.
    required_sites: tuple = ()

    @property
    def parallel(self) -> bool:
        return self.executor == "process"

    def spec(self, seed: int, size: str) -> dict:
        tiny = size == "tiny"
        if self.name == "campaign-transformer":
            return {
                "campaign": "transformer_inference",
                "n_trials": 4 if tiny else 16,
                "seed": seed,
                "params": {
                    "model": "GPT2",
                    "hidden_dim": 16 if tiny else 64,
                    "seq_len": 16 if tiny else 64,
                    # Bit 14 (the top fp16 exponent bit) is left out: a decoupled
                    # gemm_qk SEU there can cost ~200 ms a trial instead of ~9 ms,
                    # and how many such trials a seed draws made throughput
                    # swing 4x between seeds.
                    "bits": [12, 13],
                },
                # Site is a grid axis, not a per-trial draw, so every seed runs
                # the same number of trials at each site.
                "grid": {
                    "scheme": ["none", "efta_unified", "decoupled"],
                    "site": ["linear", "gemm_qk", "gemm_pv"],
                },
            }
        return {
            "campaign": "abft_error_coverage",
            "n_trials": 40 if tiny else 1000,
            "seed": seed,
            "params": {"rows": 32, "cols": 32, "depth": 16},
            "grid": {"scheme": ["tensor", "element"], "bit_error_rate": [1e-7, 1e-6]},
        }


_KERNEL_SITES = (
    ("gemm.fp16_matmul", "repro.core.efta"),
    ("gemm.fp16_matmul", "repro.core.strided_abft"),
    ("gemm.fp16_matmul", "repro.core.traditional_abft"),
    ("core.strided_abft.encode", "StridedABFT"),
    ("core.strided_abft.verify", "StridedABFT"),
    ("core.snvr", "repro.core.efta"),
    ("core.decoupled", "repro.core.decoupled"),
    ("core.dmr", "repro.core.decoupled"),
    ("fault.injector.corrupt", "FaultInjector"),
)
_ENGINE_SITES = (
    ("exec.engine", "ExperimentRunner"),
    ("exec.progress", "ProgressTracker"),
    ("store.persist_progress", None),
    ("store.append", None),
    ("store.write_canonical", None),
    ("exec.executor.wait", None),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "attention-paper-shape",
            required_sites=_KERNEL_SITES
            + (
                ("gemm.fp16_matmul", "repro.core.schemes"),
                ("gemm.checksum.verify", "repro.core.strided_abft"),
            ),
        ),
        Workload(
            "campaign-transformer",
            executor="serial",
            store="jsonl",
            required_sites=_KERNEL_SITES
            + _ENGINE_SITES
            + (
                ("gemm.fp16_matmul", "repro.fault.batched"),
                ("transformer.forward", "repro.fault.batched"),
                ("transformer.linear", "repro.fault.batched"),
                ("core.forward_batched", None),
                ("fault.run_batch", "CampaignDefinition"),
            ),
        ),
        Workload(
            "sweep-small-trials",
            executor="process",
            store="sqlite",
            workers=2,
            reads=True,
            required_sites=_ENGINE_SITES + (("store.read", None),),
        ),
    )
}


# --------------------------------------------------------------------------- #
# Wrapper targets of the traced run
# --------------------------------------------------------------------------- #
#: Modules whose import binds the names wrapped below; loaded before wrapping
#: so every ``from ... import`` site exists.
PRELOAD = (
    "repro.core.schemes",
    "repro.fault.campaign",
    "repro.fault.batched",
    "repro.transformer",
    "repro.exec",
    "repro.store",
    "repro.store.sqlite",
)

KERNEL_TARGETS = (
    ("gemm.fp16_matmul", "repro.fp.float16:fp16_matmul"),
    ("gemm.checksum.verify", "repro.gemm.checksum:verify_strided_checksums"),
    ("gemm.checksum.verify", "repro.gemm.checksum:verify_strided_checksums_stacked"),
    ("core.strided_abft.encode", "repro.core.strided_abft:StridedABFT.score_block_checksums"),
    ("core.strided_abft.encode", "repro.core.strided_abft:StridedABFT.encode_key_checksums"),
    ("core.strided_abft.encode", "repro.core.strided_abft:StridedABFT.encode_value_checksums"),
    ("core.strided_abft.verify_scores", "repro.core.strided_abft:StridedABFT.verify_scores"),
    ("core.strided_abft.verify", "repro.core.strided_abft:StridedABFT.verify_output"),
    ("core.strided_abft.verify", "repro.core.strided_abft:StridedABFT.verify_output_stacked"),
    ("core.snvr", "repro.core.snvr:exp_checksum_propagate"),
    ("core.snvr", "repro.core.snvr:verify_exp_products"),
    ("core.snvr", "repro.core.snvr:restrict_rowsum"),
    ("core.snvr", "repro.core.snvr:restrict_rowsum_stacked"),
    ("core.decoupled", "repro.core.traditional_abft:protected_matmul"),
    ("core.decoupled", "repro.core.traditional_abft:protected_matmul_stacked"),
    ("core.dmr", "repro.core.dmr:dmr_row_softmax"),
    ("core.dmr", "repro.core.dmr:dmr_row_softmax_stacked"),
    ("core.forward_batched", "repro.core.schemes:UnprotectedAttention.forward_batched"),
    ("core.forward_batched", "repro.core.schemes:_KernelScheme.forward_batched"),
    ("fault.injector.corrupt", "repro.fault.injector:FaultInjector.corrupt"),
    ("transformer.forward", "repro.transformer.model:TransformerModel.forward"),
    ("transformer.forward", "repro.fault.batched:_forward_batched"),
    ("transformer.forward", "repro.fault.batched:_forward_batched_unprotected"),
    ("transformer.linear", "repro.transformer.layers:ProtectedLinear.__call__"),
    ("transformer.linear", "repro.fault.batched:_linear_batched"),
    ("transformer.ffn", "repro.transformer.ffn:FeedForward.__call__"),
    ("transformer.mha", "repro.transformer.mha:MultiHeadAttention.__call__"),
    ("transformer.layernorm", "repro.transformer.layers:LayerNorm.__call__"),
    ("transformer.init", "repro.transformer.model:TransformerModel.__init__"),
)

ENGINE_TARGETS = (
    ("exec.engine", "repro.exec.engine:ExperimentRunner.run"),
    ("exec.executor.wait", "repro.exec.executors:SerialExecutor.execute"),
    ("exec.executor.wait", "repro.exec.executors:ProcessExecutor.execute"),
    ("exec.progress", "repro.exec.progress:ProgressTracker.start"),
    ("exec.progress", "repro.exec.progress:ProgressTracker.trial_done"),
    ("exec.progress", "repro.exec.progress:ProgressTracker.point_completed"),
    ("exec.progress", "repro.exec.progress:ProgressTracker.update_pool"),
    ("exec.progress", "repro.exec.progress:ProgressTracker.finish"),
    ("store.append", "repro.exec.checkpoint:TrialCheckpoint.append"),
    ("store.append", "repro.store.sqlite:SqlitePointStore.append"),
    ("store.write_canonical", "repro.exec.checkpoint:TrialCheckpoint.write_canonical"),
    ("store.write_canonical", "repro.store.sqlite:SqlitePointStore.write_canonical"),
    ("store.persist_progress", "repro.store.jsonl:JsonlStore.persist_progress"),
    ("store.persist_progress", "repro.store.sqlite:SqliteStore.persist_progress"),
    ("store.read", "repro.store.query:query_records"),
    ("store.read", "repro.store.jsonl:JsonlStore.point_records"),
    ("store.read", "repro.store.sqlite:SqliteStore.point_records"),
)


def _run_batch_hook(tracer: Tracer):
    """``CampaignDefinition.run_batch`` counting trials a batched kernel served."""

    def factory(original):
        def run_batch(self, rngs, params_json, indices=None):
            tracer.site_calls[("fault.run_batch", "CampaignDefinition")] += 1
            tracer.counters["trials.attempted"] += len(rngs)
            definition = self
            if self.batch is not None:
                batch = self.batch

                def counted(batch_rngs, params):
                    records = batch(batch_rngs, params)
                    if records is not None:
                        tracer.counters["trials.batched"] += len(batch_rngs)
                    return records

                definition = replace(self, batch=counted)
            with tracer.span("fault.run_batch"):
                return original(definition, rngs, params_json, indices)

        return run_batch

    return factory


def install(tracer: Tracer, kernels: bool) -> Installer:
    """Install the traced run's wrappers; kernel layers only on in-process workloads."""
    import importlib

    for module in PRELOAD:
        importlib.import_module(module)
    installer = Installer(tracer)
    for name, target in (KERNEL_TARGETS if kernels else ()) + ENGINE_TARGETS:
        installer.wrap(name, target)
    if kernels:
        installer.hook("repro.fault.runner:CampaignDefinition.run_batch", _run_batch_hook(tracer))
    return installer


def missing_sites(tracer: Tracer, workload: Workload) -> list[str]:
    """Required (group, site) pairs the traced phase never called."""
    seen = {(name, site) for (name, site), n in tracer.site_calls.items() if n}
    groups = {name for name, _ in seen}
    missing = []
    for name, site in workload.required_sites:
        hit = name in groups if site is None else (name, site) in seen
        if not hit:
            missing.append(f"{name}@{site or '*'}")
    return missing


# --------------------------------------------------------------------------- #
# Process-level measurements
# --------------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class CpuClock:
    """CPU seconds of this process and its reaped children over wall time."""

    def __init__(self) -> None:
        self.t0 = os.times()
        self.w0 = time.perf_counter()

    def utilisation(self) -> float:
        t1 = os.times()
        cpu = sum(t1[:4]) - sum(self.t0[:4])
        wall = time.perf_counter() - self.w0
        return cpu / (wall * (os.cpu_count() or 1)) if wall > 0 else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


# --------------------------------------------------------------------------- #
# attention-paper-shape
# --------------------------------------------------------------------------- #
@dataclass
class Tally:
    """Operations attempted / failed in one phase, with the first failure messages."""

    ops: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    false_alarms: int = 0
    messages: list = field(default_factory=list)
    #: (operations, busy seconds) of each closed-loop unit.
    units: list = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 5:
            self.messages.append(message)

    def ops_per_s(self) -> float:
        """90th percentile over units of operations per busy second.

        The host is shared and its speed moves in regimes that flip within a
        minute: the same attention run read 15 forward calls/s in one ten-run
        set and 24 in the next, and a fixed NumPy kernel timed in 5 s slices
        kept a steady minimum while its median ranged 25-31 ms.  The rate of
        the faster units is what the program can do; the median mostly tracks
        the other tenants.
        """
        return percentile([ops / busy for ops, busy in self.units if busy > 0], 90)


class Loop:
    """What ``measure.py`` reads from a workload loop; the attention loop keeps the defaults."""

    reps = 0
    expected = 0
    bytes_written = 0

    def __init__(self) -> None:
        self.commit_gaps: list[float] = []

    def unit(self, tally: Tally, latencies: dict, tracer: Tracer | None = None) -> None:
        """One closed-loop unit; records its operations and busy time."""
        ops, busy = tally.ops, tally.busy_s
        self._unit(tally, latencies, tracer)
        tally.units.append((tally.ops - ops, tally.busy_s - busy))

    def setup_only(self) -> float:
        """Set up and stop at the first completed operation; returns its instant."""
        return self.first(Tally())

    def read_phase(self, seconds: float, tally: Tally) -> tuple[int, float]:
        return 0, 0.0

    def uncorrected_frac(self) -> dict[str, float]:
        """Share of faulty calls per protected scheme left outside TOLERANCE."""
        return {}

    def digest_hex(self) -> str | None:
        raise NotImplementedError


class AttentionLoop(Loop):
    """Round-robin ``forward`` calls over the four schemes on seed-drawn inputs."""

    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        from repro.core.config import AttentionConfig
        from repro.core.schemes import build_scheme

        seq, dim, block = (512, 64, 64) if size == "full" else (128, 32, 32)
        self.config = AttentionConfig(seq, dim, block_size=block)
        rng = np.random.default_rng(seed)
        self.q, self.k, self.v = (
            rng.standard_normal((2, seq, dim)).astype(np.float32) for _ in range(3)
        )
        self.schemes = {name: build_scheme(name, self.config) for name in SCHEMES}
        self.plan_rng = np.random.default_rng([seed, 1])
        self.clean: dict[str, np.ndarray] = {}
        self.rounds = 0
        self.digest = hashlib.sha256()
        self.digest_rounds = 2
        #: ``time.monotonic()`` when the first forward completed.
        self.first_done: float | None = None
        self.faulty: Counter = Counter()
        self.uncorrected: Counter = Counter()

    def _fault(self):
        """One SEU in GEMM I at a seed-drawn block, element and exponent bit."""
        from repro.fault.injector import FaultInjector
        from repro.fault.models import FaultSite

        n = self.config.n_blocks
        block = (int(self.plan_rng.integers(n)), int(self.plan_rng.integers(n)))
        bit = int(self.plan_rng.integers(10, 15))
        seed = int(self.plan_rng.integers(2**31))
        return lambda: FaultInjector.single_bit_flip(
            FaultSite.GEMM_QK, seed=seed, block=block, bit=bit
        )

    def run_round(self, tally: Tally, latencies: dict, tracer: Tracer | None = None) -> None:
        faulty = self.rounds % 2 == 1
        make_injector = self._fault() if faulty else None
        for name, scheme in self.schemes.items():
            injector = make_injector() if faulty else None
            tally.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    out, report = scheme.forward(self.q, self.k, self.v, injector)
                else:
                    with tracer.span(f"core.forward.{name}"):
                        out, report = scheme.forward(self.q, self.k, self.v, injector)
            except Exception as exc:  # a raising call is a failed operation
                tally.fail(f"{name} forward raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            if self.first_done is None:
                self.first_done = time.monotonic()
            tally.ops += 1
            tally.busy_s += elapsed
            latencies.setdefault(name, []).append(elapsed)
            self._check(name, out, report, faulty, tally)
            if self.rounds < self.digest_rounds:
                self._digest(out, report)
        self.rounds += 1

    def first(self, tally: Tally) -> float:
        """Round 0: the clean reference outputs.  Returns the first forward's instant."""
        self.run_round(tally, {})
        return self.first_done

    def digest_hex(self) -> str:
        return self.digest.hexdigest()

    def warm_up(self, tally: Tally) -> None:
        """Round 1, the first faulty round; measured rounds then come in pairs."""
        self.run_round(tally, {})

    def _unit(self, tally: Tally, latencies: dict, tracer: Tracer | None = None) -> None:
        """One clean and one faulty round."""
        self.run_round(tally, latencies, tracer)
        self.run_round(tally, latencies, tracer)

    def _check(self, name, out, report, faulty: bool, tally: Tally) -> None:
        if not faulty:
            if report.detected_any:
                tally.false_alarms += 1
                tally.fail(f"{name}: alarm on a clean call ({report.summary()})")
            reference = self.clean.setdefault(name, out)
            if reference is not out and not np.array_equal(out, reference):
                tally.fail(f"{name}: clean output differs between calls")
            if name != "none" and "none" in self.clean:
                base = self.clean["none"]
                err = float(np.abs(out - base).max() / np.abs(base).max())
                if not err < TOLERANCE:
                    tally.fail(f"{name}: clean output off the unprotected one by {err:.3g}")
            return
        if not report.injected:
            tally.fail(f"{name}: the planned fault never fired")
            return
        if name == "none":
            return
        base = self.clean[name]
        err = float(np.abs(out - base).max() / np.abs(base).max())
        self.faulty[name] += 1
        self.uncorrected[name] += not err < TOLERANCE  # NaN counts as uncorrected

    def uncorrected_frac(self) -> dict[str, float]:
        return {name: self.uncorrected[name] / n for name, n in self.faulty.items()}

    def _digest(self, out, report) -> None:
        self.digest.update(np.ascontiguousarray(out).tobytes())
        counters = {
            key: sorted(getattr(report, key).items())
            for key in ("detections", "corrections", "recomputations", "restorations", "uncorrectable")
        }
        counters["injected"] = len(report.injected)
        self.digest.update(json.dumps(counters, sort_keys=True).encode())


# --------------------------------------------------------------------------- #
# Experiment workloads
# --------------------------------------------------------------------------- #
class SetupDone(Exception):
    """Raised by the progress listener to stop a set-up-only run at its first record."""


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


class ExperimentLoop(Loop):
    """Repeated ``run_experiment`` calls on one spec, each into a fresh results path."""

    def __init__(self, workload: Workload, seed: int, size: str, workdir: Path) -> None:
        super().__init__()
        self.workload = workload
        self.spec = workload.spec(seed, size)
        self.n_points = int(np.prod([len(v) for v in self.spec["grid"].values()]))
        self.expected = self.spec["n_trials"] * self.n_points
        self.workdir = workdir
        self.reps = 0
        self.digest: str | None = None
        #: ``time.monotonic()`` of the first committed record of this process.
        self.first_record_at: float | None = None
        #: Results path of the latest rep, kept for the read phase.
        self.kept: Path | None = None

    def _path(self) -> Path:
        suffix = ".sqlite" if self.workload.store == "sqlite" else ""
        return self.workdir / f"rep-{self.reps}{suffix}"

    def _executor(self):
        from repro.exec import build_executor

        return build_executor(self.workload.executor, n_workers=self.workload.workers)

    def setup_only(self) -> float:
        """Run a rep until its first committed record, then abort it."""
        from repro.exec import run_experiment

        def listener(event):
            if event.kind == "trial":
                self.first_record_at = time.monotonic()
                raise SetupDone

        path = self._path()
        try:
            run_experiment(
                self.spec, executor=self._executor(), results_path=path,
                store=self.workload.store, progress=listener,
            )
        except SetupDone:
            pass
        finally:
            _remove(path)
        return self.first_record_at

    def first(self, tally: Tally) -> float:
        """The warm-up rep (fixtures, caches, first pool); returns its first record's instant."""
        self._unit(tally, {})
        return self.first_record_at

    def warm_up(self, tally: Tally) -> None:
        pass

    def digest_hex(self) -> str | None:
        return self.digest

    def _unit(self, tally: Tally, latencies: dict, tracer: Tracer | None = None) -> None:
        """One full rep.  The latest rep's results stay on disk when the workload reads."""
        previous, self.kept = self.kept, None
        path = self.run_rep(tally)
        if previous is not None:
            _remove(previous)
        if self.workload.reads and path.exists():
            self.kept = path
        else:
            _remove(path)

    def run_rep(self, tally: Tally) -> Path:
        """One full rep; checks its records and bytes.  Returns the results path."""
        from repro.exec import run_experiment

        path = self._path()
        self.reps += 1
        stamps: list[float] = []

        def listener(event):
            if event.kind == "trial":
                stamps.append(time.perf_counter())
                if self.first_record_at is None:
                    self.first_record_at = time.monotonic()

        tally.attempted += self.expected
        try:
            result = run_experiment(
                self.spec, executor=self._executor(), results_path=path,
                store=self.workload.store, progress=listener,
            )
        except Exception as exc:  # the whole rep is lost
            tally.fail(f"run_experiment raised {exc!r}", self.expected)
            _remove(path)
            return path
        end = time.perf_counter()
        committed = sum(len(point.records.records) for point in result.points)
        if committed < self.expected:
            tally.fail(f"{self.expected - committed} records missing", self.expected - committed)
        tally.ops += committed
        if stamps:
            tally.busy_s += end - stamps[0]
            self.commit_gaps.extend(np.diff(stamps).tolist())
        for point in result.points:
            for record in point.records.records.values():
                if record.get("false_alarm"):
                    tally.false_alarms += 1
                    tally.fail("a fault-free trial raised an alarm")
        self._check_bytes(path, tally)
        self.bytes_written += _tree_bytes(path)
        return path

    def _check_bytes(self, path: Path, tally: Tally) -> None:
        """Every rep's canonical bytes must equal the first rep's."""
        from repro.store import open_store

        store = open_store(path)
        try:
            digest = hashlib.sha256()
            for index in range(self.n_points):
                digest.update(store.export_canonical(index))
        finally:
            store.close()
        if self.digest is None:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            tally.fail("canonical result bytes differ between reps", self.expected)

    def read_phase(self, seconds: float, tally: Tally) -> tuple[int, float]:
        """Filtered ``query_records`` streams and ``point_records`` folds on the
        latest rep's results, repeated for ``seconds``.

        Returns (records read, seconds spent reading).
        """
        from repro.store import QueryFilter, open_store, query_records

        if self.kept is None:
            return 0, 0.0
        store = open_store(self.kept)
        schemes = self.spec["grid"]["scheme"]
        per_scheme = self.expected // len(schemes)
        records = 0
        busy = 0.0
        try:
            while busy < seconds:
                start = time.perf_counter()
                for scheme in schemes:
                    seen = 0
                    for detected in (True, False):
                        flt = QueryFilter(scheme=scheme, detected=detected)
                        seen += sum(1 for _ in query_records(store, flt))
                    records += seen
                    if seen != per_scheme:
                        tally.fail(f"query for scheme {scheme} read {seen} of {per_scheme} records")
                for index in range(self.n_points):
                    point = store.point_records(index)
                    point.aggregate()
                    records += len(point.records)
                busy += time.perf_counter() - start
        finally:
            store.close()
            _remove(self.kept)
            self.kept = None
        return records, busy


# --------------------------------------------------------------------------- #
# Per-layer metrics of a traced phase
# --------------------------------------------------------------------------- #
def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation span totals of the traced phase (see the README's table)."""
    ix = SpanIndex(tracer.spans)
    per = 1.0 / ops if ops else 0.0
    m = {
        "gemm.fp16_matmul.calls": ix.calls("gemm.fp16_matmul") * per,
        "gemm.fp16_matmul.ms": ix.total_ms("gemm.fp16_matmul") * per,
        "gemm.checksum.verify.calls": ix.calls("gemm.checksum.verify") * per,
        "gemm.checksum.verify.ms": ix.total_ms("gemm.checksum.verify") * per,
        "core.strided_abft.encode_ms": ix.total_ms("core.strided_abft.encode") * per,
        "core.strided_abft.verify_ms": ix.total_ms(
            "core.strided_abft.verify", "core.strided_abft.verify_scores"
        ) * per,
        "core.strided_abft.calls": ix.calls(
            "core.strided_abft.encode", "core.strided_abft.verify", "core.strided_abft.verify_scores"
        ) * per,
        "core.verify_scores.calls": ix.calls("core.strided_abft.verify_scores") * per,
        "core.snvr.ms": ix.total_ms("core.snvr") * per,
        "core.snvr.calls": ix.calls("core.snvr") * per,
        "core.decoupled.ms": ix.total_ms("core.decoupled") * per,
        "core.dmr.ms": ix.total_ms("core.dmr") * per,
        "core.forward_batched.ms": ix.total_ms("core.forward_batched") * per,
        "fault.injector.corrupt.calls": ix.calls("fault.injector.corrupt") * per,
        "fault.injector.corrupt.ms": ix.total_ms("fault.injector.corrupt") * per,
        "transformer.forward.ms": ix.total_ms("transformer.forward") * per,
        "transformer.linear.ms": ix.total_ms("transformer.linear") * per,
        "transformer.ffn.ms": ix.total_ms("transformer.ffn") * per,
        "transformer.mha.self_ms": ix.self_ms("transformer.mha") * per,
        "transformer.layernorm.ms": ix.total_ms("transformer.layernorm") * per,
        "fault.run_batch.calls": ix.calls("fault.run_batch") * per,
        "fault.run_batch.ms": ix.total_ms("fault.run_batch") * per,
        "fault.batched.trial_ratio": (
            tracer.counters["trials.batched"] / tracer.counters["trials.attempted"]
            if tracer.counters["trials.attempted"]
            else 0.0
        ),
        "exec.engine.self_ms": ix.self_ms("exec.engine") * per,
        "exec.executor.wait_ms": ix.total_ms("exec.executor.wait") * per,
        "exec.executor.records": tracer.counters["exec.executor.wait.items"] * per,
        "exec.progress.ms": ix.total_ms("exec.progress") * per,
        "store.append.calls": ix.calls("store.append") * per,
        "store.append.ms": ix.total_ms("store.append") * per,
        "store.write_canonical.ms": ix.total_ms("store.write_canonical") * per,
        "store.persist_progress.ms": ix.total_ms("store.persist_progress") * per,
        "trace.spans": float(len(tracer.spans)),
    }
    for name in SCHEMES:
        calls = ix.calls(f"core.forward.{name}")
        m[f"core.forward.{name}.self_ms"] = ix.self_ms(f"core.forward.{name}") / calls if calls else 0.0
    return m


def scheme_latency_metrics(latencies: dict) -> dict[str, float]:
    """Per-scheme forward p50/p90 and the paper's Table 1-2 ratios."""
    m = {}
    p50 = {}
    for name in SCHEMES:
        values = [1e3 * v for v in latencies.get(name, [])]
        p50[name] = percentile(values, 50)
        m[f"{name}.forward_ms_p50"] = p50[name]
        m[f"{name}.forward_ms_p90"] = percentile(values, 90)
    m["core.overhead_pct.efta_unified"] = (
        100.0 * (p50["efta_unified"] / p50["none"] - 1.0) if p50["none"] else 0.0
    )
    m["core.speedup.decoupled_over_efta_unified"] = (
        p50["decoupled"] / p50["efta_unified"] if p50["efta_unified"] else 0.0
    )
    return m


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
