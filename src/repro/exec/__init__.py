"""Unified experiment execution: one spec, pluggable backends, typed results.

``repro.exec`` is the single entry point behind every "run many trials over
many grid points and tabulate" artifact in the paper (Figures 9/12/14/15,
Tables 1-2):

* :class:`ExperimentSpec` -- the one declarative spec, covering both single
  campaigns and cross-campaign sweep grids (auto-detected on load).
* :class:`Executor` -- the pluggable execution-strategy interface with
  ``serial``, ``process`` (one pool shared across all grid points) and
  ``distributed`` (socket/queue dispatch to local or remote ``python -m repro
  worker`` processes, with lease-based fault recovery) backends, all
  bit-identical for any backend/worker count; new backends register with
  :func:`register_executor`.
* :class:`ProgressTracker` / :class:`ProgressEvent` -- executor-level
  progress: every backend's finished trials stream through the engine, which
  emits trials-done/ETA events to listeners such as the CI-log-safe
  :class:`ProgressPrinter` (the ``--progress`` CLI flag).
* :class:`TrialRecordSet` / :class:`ExperimentResult` -- the typed result
  surface: ``summary()`` protocol, canonical ``to_jsonl``/``from_jsonl``,
  shard ``merge``.
* :func:`run_experiment` / :class:`ExperimentRunner` -- the one runner, tying
  spec, results store, executor and aggregation together.
* ``python -m repro run|sweep|list-campaigns|report`` -- the umbrella CLI
  (:mod:`repro.exec.cli`).

Importing the package also registers the deterministic roofline-cost kernels
(:mod:`repro.exec.costing`) used by the table/figure benchmarks.
"""

from repro.exec.adaptive import AdaptiveSpec, StopDecision
from repro.exec.checkpoint import TrialCheckpoint, campaign_results_path
from repro.exec.distributed import (
    DistributedExecutor,
    ScalePolicy,
    available_scale_policies,
    build_scale_policy,
    register_scale_policy,
    run_worker,
)
from repro.exec.engine import ExperimentRunner, run_experiment
from repro.exec.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    TrialSlice,
    available_executors,
    build_executor,
    get_executor,
    register_executor,
)
from repro.exec.progress import (
    ProgressEvent,
    ProgressPrinter,
    ProgressTracker,
)
from repro.exec.results import (
    ExperimentResult,
    PointResult,
    RecordSummary,
    SummaryProtocol,
    TrialRecordSet,
    single_record_aggregate,
)
from repro.exec.spec import ExperimentSpec, load_spec

# Registering the cost kernels on import keeps `--list-campaigns` and
# spec-driven runs complete without a separate bootstrap import.
import repro.exec.costing  # noqa: E402,F401  (registration side effect)

__all__ = [
    "AdaptiveSpec",
    "DistributedExecutor",
    "Executor",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "PointResult",
    "ProcessExecutor",
    "ProgressEvent",
    "ProgressPrinter",
    "ProgressTracker",
    "RecordSummary",
    "ScalePolicy",
    "SerialExecutor",
    "StopDecision",
    "SummaryProtocol",
    "TrialCheckpoint",
    "TrialRecordSet",
    "TrialSlice",
    "available_executors",
    "available_scale_policies",
    "build_executor",
    "build_scale_policy",
    "campaign_results_path",
    "get_executor",
    "load_spec",
    "register_executor",
    "register_scale_policy",
    "run_experiment",
    "run_worker",
    "single_record_aggregate",
]
