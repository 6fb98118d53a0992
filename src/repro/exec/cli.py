"""The ``repro`` umbrella command line: one CLI for every experiment.

::

    python -m repro run spec.json [--executor serial|process|distributed]
                                  [--workers N] [--results PATH]
                                  [--store jsonl|sqlite] [--progress]
    python -m repro sweep spec.json [--expand-only] [...]
    python -m repro worker --connect HOST:PORT [--authkey KEY]
    python -m repro list-campaigns
    python -m repro list-fault-models
    python -m repro faultload generate --model NAME --trials N --out fl.jsonl
    python -m repro faultload describe fl.jsonl
    python -m repro report PATH [PATH ...]
    python -m repro pareto PATH [--metric detection_rate] [--cost attention_cost]
    python -m repro query PATH [--campaign S] [--scheme S] [--detected true]
                               [--count | --limit N] [--jsonl]
    python -m repro store convert PATH --to sqlite|jsonl [--out PATH]

``run`` auto-detects campaign vs. sweep specs (a ``grid`` key marks a sweep)
and executes through any registered backend; ``--progress`` streams
plain-text heartbeat lines (trials done, throughput, ETA) from every backend.
``sweep`` is the same engine but insists on a grid and can print the expanded
campaigns; ``worker`` joins a ``--executor distributed`` coordinator and
pulls trial batches until the run ends; ``list-campaigns`` shows every
registered trial kernel with its one-line summary; ``report`` re-renders
finished results (a campaign file, an experiment stream, a sweep results
directory, or a sqlite results database -- the store backend is sniffed from
the path) without re-running anything -- for an interrupted run it prints
the completion state instead and exits 1.  ``pareto`` joins a finished
scheme sweep's detection statistics (with confidence intervals) against the
roofline cost models and prints the Pareto-optimal scheme set.  ``query``
streams filtered trial records (by campaign, point, scheme, fault model,
detected flag) out of any store backend, on finished or in-flight runs,
without loading whole record sets; ``store convert`` migrates a results
path between backends (``--to sqlite`` aggregates JSONL checkpoints into
one queryable database, ``--to jsonl`` exports canonical checkpoint files).

``run``/``sweep`` also take ``--target-ci`` (with ``--adaptive-batch`` /
``--max-trials``) to run the spec adaptively: grid points stop early once
their metric's confidence interval is tight enough and top up in batches
otherwise -- equivalent to an ``"adaptive": {...}`` block in the spec.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.exec.checkpoint import campaign_results_path
from repro.exec.engine import run_experiment
from repro.exec.executors import available_executors
from repro.exec.results import ExperimentResult, PointResult, TrialRecordSet
from repro.exec.spec import ExperimentSpec
from repro.store import (
    DEFAULT_STORE,
    MANIFEST_NAME,
    available_stores,
    open_store,
    progress_sidecar_path,
    read_manifest,
    sniff_store,
)


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="path to an experiment spec JSON file")
    parser.add_argument(
        "--executor",
        default="serial",
        metavar="|".join(available_executors()),
        help="execution backend (default: serial); all backends are "
        "bit-identical for any worker count",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="parallelism budget of the backend"
    )
    parser.add_argument(
        "--results",
        default=None,
        help="checkpoint path enabling resume: with the default jsonl store "
        "a JSONL file for a campaign spec or a directory of per-point JSONL "
        "files for a sweep spec; with --store sqlite one database file "
        "either way",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="|".join(available_stores()),
        help="results-store backend for --results (default: the spec's "
        '"store" field, else jsonl); all backends hold byte-equivalent '
        "records (`repro store convert` migrates between them)",
    )
    parser.add_argument(
        "--trial-batch",
        type=int,
        default=None,
        metavar="N",
        help="trials folded into one batched kernel call where a campaign "
        "registers a batched kernel (sets REPRO_TRIAL_BATCH, inherited by "
        "workers; 1 forces the scalar path; default: 16)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream plain-text heartbeat lines (trials done, throughput, "
        "ETA) to stderr; safe for CI logs",
    )
    parser.add_argument(
        "--progress-interval",
        type=_nonnegative_float,
        default=5.0,
        metavar="SECONDS",
        help="minimum seconds between heartbeat lines (default: 5)",
    )
    adaptive = parser.add_argument_group(
        "adaptive campaigns",
        "CI-driven early stop and top-up; flags override the spec's "
        '"adaptive" block field-by-field',
    )
    adaptive.add_argument(
        "--target-ci",
        type=_positive_float,
        default=None,
        metavar="HALF_WIDTH",
        help="run adaptively: stop each grid point once its metric's "
        "confidence-interval half-width is at most this (points whose CI "
        "is still wide top up by --adaptive-batch more trials, up to "
        "--max-trials)",
    )
    adaptive.add_argument(
        "--adaptive-batch",
        type=int,
        default=None,
        metavar="N",
        help="trials per adaptive round (default: 32)",
    )
    adaptive.add_argument(
        "--max-trials",
        type=int,
        default=None,
        metavar="N",
        help="per-point trial cap of an adaptive run (default: the spec's "
        "n_trials; set higher to let tight targets top up past it)",
    )
    distributed = parser.add_argument_group(
        "distributed executor", "options used only with --executor distributed"
    )
    distributed.add_argument(
        "--bind",
        default=None,
        metavar="HOST:PORT",
        help="coordinator bind address (default: 127.0.0.1 on an ephemeral "
        "port, printed at startup); bind a routable host so `python -m "
        "repro worker` processes on other machines can join",
    )
    distributed.add_argument(
        "--authkey",
        default=None,
        help="shared secret of the coordinator/worker connection",
    )
    distributed.add_argument(
        "--no-spawn-workers",
        action="store_true",
        help="do not spawn local worker subprocesses; rely entirely on "
        "externally-started `python -m repro worker` processes",
    )
    distributed.add_argument(
        "--scale",
        default=None,
        metavar="POLICY",
        help="worker-pool scale policy: 'fixed' (default; keep the spawned "
        "pool at --workers) or 'queue-depth' (grow up to --max-workers "
        "while the task queue stays deep, retire idle workers as it drains)",
    )
    distributed.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="ceiling of the spawned pool for autoscaling policies "
        "(default: --workers)",
    )
    distributed.add_argument(
        "--max-respawns",
        type=int,
        default=None,
        metavar="N",
        help="replacements for spawned workers that die without a clean "
        "quota-retirement before the run fails loudly (default: 8)",
    )
    distributed.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="seconds a claimed batch may stay silent before it is "
        "re-enqueued for another worker (default: 30)",
    )
    distributed.add_argument(
        "--stall-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="fail the run if no batch completes for this many seconds "
        "(hung-worker guard; default: off)",
    )
    distributed.add_argument(
        "--worker-import",
        dest="worker_imports",
        action="append",
        default=[],
        metavar="MODULE",
        help="module (dotted name or .py path) each spawned worker imports "
        "before pulling work, for trial kernels registered outside repro; "
        "repeatable",
    )


def _check_results_path(
    parser: argparse.ArgumentParser,
    spec: ExperimentSpec,
    results,
    store: str | None,
) -> None:
    if results is None:
        return
    if (store or spec.store or DEFAULT_STORE) != DEFAULT_STORE:
        # Layout shape is the store's business (validated at runner
        # construction); only the jsonl layout has the file/dir split worth
        # catching at the argparse layer.
        return
    path = Path(results)
    if spec.is_sweep and path.is_file():
        parser.error(
            f"--results {results} is a file, but a sweep spec checkpoints "
            "into a directory of per-point JSONL files"
        )
    if not spec.is_sweep and path.is_dir():
        parser.error(
            f"--results {results} is a directory, but a campaign spec "
            "checkpoints into a single JSONL file"
        )


def _apply_adaptive_flags(
    parser: argparse.ArgumentParser, spec: ExperimentSpec, args: argparse.Namespace
) -> ExperimentSpec:
    """Fold ``--target-ci``/``--adaptive-batch``/``--max-trials`` into the spec."""
    from dataclasses import replace

    from repro.exec.adaptive import AdaptiveSpec

    overrides = {
        key: value
        for key, value in [
            ("batch", args.adaptive_batch),
            ("max_trials", args.max_trials),
        ]
        if value is not None
    }
    if args.target_ci is not None:
        overrides["target_ci"] = args.target_ci
    if not overrides:
        return spec
    try:
        if spec.adaptive is not None:
            adaptive = replace(spec.adaptive, **overrides)
        elif args.target_ci is None:
            parser.error(
                "--adaptive-batch/--max-trials need --target-ci (or an "
                '"adaptive" block in the spec) to run adaptively'
            )
        else:
            adaptive = AdaptiveSpec(**overrides)
    except ValueError as exc:
        parser.error(str(exc))
    return replace(spec, adaptive=adaptive)


def _load_spec(parser: argparse.ArgumentParser, path: str) -> ExperimentSpec:
    try:
        return ExperimentSpec.from_json(Path(path).read_text())
    except FileNotFoundError:
        parser.error(f"spec file {path} does not exist")
    except ValueError as exc:
        parser.error(f"invalid spec file {path}: {exc}")


def _build_cli_executor(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The backend for ``run``: a name, or a configured distributed instance."""
    if args.executor != "distributed":
        for flag, value in [
            ("--bind", args.bind),
            ("--authkey", args.authkey),
            ("--lease-timeout", args.lease_timeout),
            ("--stall-timeout", args.stall_timeout),
            ("--scale", args.scale),
            ("--max-workers", args.max_workers),
            ("--max-respawns", args.max_respawns),
        ]:
            if value is not None:
                parser.error(f"{flag} requires --executor distributed")
        if args.no_spawn_workers:
            parser.error("--no-spawn-workers requires --executor distributed")
        if args.worker_imports:
            parser.error("--worker-import requires --executor distributed")
        return args.executor
    from repro.exec.distributed import (
        DEFAULT_LEASE_TIMEOUT,
        DistributedExecutor,
        import_worker_module,
        parse_address,
    )

    try:
        host, port = parse_address(args.bind if args.bind is not None else "127.0.0.1:0")
    except ValueError as exc:
        parser.error(f"invalid --bind: {exc}")
    for module in args.worker_imports:
        # The coordinator aggregates the records, so it needs the out-of-tree
        # kernels registered too, not just the workers.
        try:
            import_worker_module(module)
        except ImportError as exc:
            parser.error(f"cannot import --worker-import {module!r}: {exc}")
    try:
        return DistributedExecutor(
            n_workers=args.workers,
            host=host,
            port=port,
            authkey=args.authkey,  # None generates a random per-run token
            spawn_workers=not args.no_spawn_workers,
            lease_timeout=(
                args.lease_timeout
                if args.lease_timeout is not None
                else DEFAULT_LEASE_TIMEOUT
            ),
            stall_timeout=args.stall_timeout,
            scale=args.scale if args.scale is not None else "fixed",
            max_workers=args.max_workers,
            max_respawns=args.max_respawns if args.max_respawns is not None else 8,
            worker_imports=args.worker_imports,
            announce=True,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _progress_listeners(args: argparse.Namespace):
    if not args.progress:
        return None
    from repro.exec.progress import ProgressPrinter

    return [ProgressPrinter(interval=args.progress_interval)]


def cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    spec = _load_spec(parser, args.spec)
    spec = _apply_adaptive_flags(parser, spec, args)
    if args.store is not None and args.store not in available_stores():
        parser.error(
            f"unknown --store {args.store!r}; registered: {available_stores()}"
        )
    _check_results_path(parser, spec, args.results, args.store)
    if args.trial_batch is not None:
        import os

        from repro.fault.runner import TRIAL_BATCH_ENV

        if args.trial_batch < 1:
            parser.error("--trial-batch must be >= 1")
        # Exported rather than threaded through the executors: pool and
        # distributed workers inherit the environment, so one knob reaches
        # every backend.
        os.environ[TRIAL_BATCH_ENV] = str(args.trial_batch)
    result = run_experiment(
        spec,
        executor=_build_cli_executor(parser, args),
        n_workers=args.workers,
        results_path=args.results,
        store=args.store,
        progress=_progress_listeners(args),
    )
    from repro.analysis.reporting import format_experiment_result

    print(format_experiment_result(result))
    return 0


def cmd_worker(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    import os
    from multiprocessing import AuthenticationError

    from repro.exec.distributed import AUTHKEY_ENV, parse_address, run_worker

    try:
        address = parse_address(args.connect)
    except ValueError as exc:
        parser.error(f"invalid --connect: {exc}")
    authkey = args.authkey if args.authkey is not None else os.environ.get(AUTHKEY_ENV)
    if authkey is None:
        parser.error(
            f"no shared secret: pass --authkey or set {AUTHKEY_ENV} "
            "(the coordinator prints the per-run token at startup)"
        )
    try:
        return run_worker(
            address,
            authkey=authkey,
            max_tasks=args.max_tasks,
            imports=args.imports,
        )
    except AuthenticationError:
        print(
            f"error: coordinator at {args.connect} rejected the connection: "
            "--authkey does not match the coordinator's",
            file=sys.stderr,
        )
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach coordinator at {args.connect}: {exc}", file=sys.stderr)
        return 1


def cmd_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    spec = _load_spec(parser, args.spec)
    if not spec.is_sweep:
        parser.error(
            f"spec file {args.spec} has no grid; it is a single campaign "
            "(run it with `repro run`)"
        )
    if args.expand_only:
        for campaign in spec.expand():
            print(campaign.to_json())
        return 0
    return cmd_run(parser, args)


def cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.bench.harness import main as bench_main

    return bench_main(args.bench_args)


def cmd_list_campaigns(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.fault.runner import campaign_summaries, get_campaign

    summaries = campaign_summaries()
    width = max((len(name) for name, _ in summaries), default=0)
    for name, summary in summaries:
        # Campaigns that thread a `fault_model` param through to the fault
        # dictionary advertise it, so `list-fault-models` output is usable
        # without reading each kernel's docstring.
        if get_campaign(name).accepts_fault_model:
            summary = f"{summary} [accepts fault_model]".strip()
        print(f"{name.ljust(width)}  {summary}".rstrip())
    return 0


def cmd_list_fault_models(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.fault.dictionary import fault_model_summaries

    summaries = fault_model_summaries()
    width = max((len(name) for name, _ in summaries), default=0)
    for name, summary in summaries:
        print(f"{name.ljust(width)}  {summary}".rstrip())
    return 0


def cmd_faultload_generate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.fault.dictionary import FaultloadGenerator

    model_params = {}
    if args.model_params:
        try:
            model_params = json.loads(args.model_params)
        except ValueError as exc:
            parser.error(f"--model-params is not valid JSON: {exc}")
        if not isinstance(model_params, dict):
            parser.error("--model-params must be a JSON object")
    shape = tuple(args.shape) if args.shape else None
    try:
        generator = FaultloadGenerator(
            model=args.model,
            n_trials=args.trials,
            seed=args.seed,
            site=args.site,
            dtype=args.dtype,
            bits=tuple(args.bits) if args.bits else None,
            n_faults=args.n_faults,
            occurrence=args.occurrence,
            shape=shape,
            model_params=model_params,
            name=args.name,
        )
        faultload = generator.generate()
    except ValueError as exc:
        parser.error(str(exc))
    faultload.write(args.out)
    print(
        f"wrote {faultload.n_trials}-trial {faultload.model!r} faultload "
        f"to {args.out}"
    )
    return 0


def cmd_faultload_describe(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.fault.dictionary import load_faultload

    try:
        faultload = load_faultload(args.faultload)
    except ValueError as exc:
        parser.error(str(exc))
    for key in sorted(faultload.header):
        print(f"{key}: {json.dumps(faultload.header[key], sort_keys=True)}")
    total = sum(len(faultload.specs_for(i)) for i in range(faultload.n_trials))
    print(f"fault specs: {total} across {faultload.n_trials} trials")
    if args.digests:
        for i in range(faultload.n_trials):
            print(f"trial {i}: {faultload.digest_for(i)}")
    return 0


def cmd_report(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    blocks = []
    all_complete = True
    for raw in args.results:
        path = Path(raw)
        if not path.exists():
            # A run interrupted before any record landed writes no JSONL at
            # all, but the engine still persisted its progress sidecar --
            # show that completion state instead of refusing outright.
            sidecar = progress_sidecar_path(path)
            if sidecar.exists():
                rendered = [_report_progress_sidecar(parser, sidecar)]
            else:
                parser.error(f"results path {raw} does not exist")
        elif path.is_dir():
            rendered = _report_directory(parser, path)
        elif sniff_store(path) != DEFAULT_STORE:
            rendered = [_report_store(parser, path)]
        else:
            rendered = [_report_file(parser, path)]
        blocks.extend(text for text, _ in rendered)
        all_complete = all_complete and all(complete for _, complete in rendered)
    print("\n\n".join(blocks))
    # Exit 1 on a partial run so scripts can gate on completion, after the
    # state has been shown (resume with the same spec + --results to finish).
    return 0 if all_complete else 1


def _completion_line(label: str, done: int, total: int) -> str:
    percent = 100.0 * done / total if total else 100.0
    return f"{label} -- partial run: {done}/{total} trials ({percent:.1f}%)"


def _report_progress_sidecar(
    parser: argparse.ArgumentParser, sidecar: Path
) -> tuple[str, bool]:
    """Render the completion state of a run known only by its sidecar."""
    try:
        data = json.loads(sidecar.read_text())
        spec = ExperimentSpec.from_dict(data["spec"])
        progress = data["progress"]
        done, total = progress["trials_done"], progress["trials_total"]
    except (ValueError, KeyError, TypeError) as exc:
        parser.error(f"cannot parse progress sidecar {sidecar}: {exc}")
    line = _completion_line(f"campaign: {spec.label}", done, total)
    return f"{line} [progress snapshot; no trial records on disk]", False


def _report_file(parser: argparse.ArgumentParser, path: Path) -> tuple[str, bool]:
    """Render one results file: ``(text, complete)``.

    Handles a campaign checkpoint or an experiment stream; an incomplete
    file renders its completion state instead of the aggregate.
    """
    from repro.analysis.reporting import format_experiment_result, format_point_result

    text = path.read_text()
    if _has_experiment_header(text):
        result = ExperimentResult.from_jsonl(text)
        if not result.complete:
            return _format_partial_points(
                f"experiment: {result.spec.label}",
                [(p.spec.label, len(p.records.records), p.spec.n_trials) for p in result.points],
            ), False
        return format_experiment_result(result), True
    try:
        records = TrialRecordSet.from_jsonl(text)
    except ValueError as exc:
        parser.error(f"cannot parse {path}: {exc}")
    if not records.complete:
        line = _completion_line(
            f"campaign: {records.spec.label}", len(records), records.spec.n_trials
        )
        sidecar = progress_sidecar_path(path)
        if sidecar.exists():
            try:
                snapshot = json.loads(sidecar.read_text())["progress"]
                line += (
                    f" [last snapshot: {snapshot['trials_done']}"
                    f"/{snapshot['trials_total']} trials]"
                )
            except (ValueError, KeyError, TypeError):
                pass  # a torn sidecar must not break the report
        return line, False
    title = f"campaign: {records.spec.label} ({records.spec.n_trials} trials)"
    return format_point_result(records.aggregate(), title=title), True


def _report_store(parser: argparse.ArgumentParser, path: Path) -> tuple[str, bool]:
    """Render a non-jsonl results store (e.g. a sqlite database) for ``report``.

    Same output shapes as the jsonl renderers: a completion line or
    per-point table for a partial run, the full aggregate otherwise.
    """
    from repro.analysis.reporting import format_experiment_result, format_point_result

    store = open_store(path)
    try:
        try:
            view = store.load_view()
        except ValueError as exc:
            parser.error(f"cannot read {path}: {exc}")
        spec = view.spec
        if not view.complete:
            if spec.is_sweep:
                states = [(p.spec.label, p.n_done, p.spec.n_trials) for p in view.points]
                return _format_partial_points(f"{spec.kind}: {spec.label}", states), False
            point = view.points[0]
            line = _completion_line(
                f"campaign: {point.spec.label}", point.n_done, point.spec.n_trials
            )
            if isinstance(view.progress, dict):
                try:
                    line += (
                        f" [last snapshot: {view.progress['trials_done']}"
                        f"/{view.progress['trials_total']} trials]"
                    )
                except KeyError:
                    pass  # a foreign snapshot shape must not break the report
            return line, False
        if not spec.is_sweep:
            records = store.point_records(0)
            title = f"campaign: {records.spec.label} ({records.spec.n_trials} trials)"
            return format_point_result(records.aggregate(), title=title), True
        points = []
        for index, (point, _campaign_spec) in enumerate(spec.expanded()):
            records = store.point_records(index)
            points.append(
                PointResult(
                    index=index,
                    point=point,
                    spec=records.spec,
                    records=records,
                    result=records.aggregate(),
                )
            )
        return format_experiment_result(ExperimentResult(spec=spec, points=points)), True
    finally:
        store.close()


def _format_partial_points(label: str, states: list[tuple[str, int, int]]) -> str:
    """A completion-state table for a partial multi-point run."""
    from repro.analysis.reporting import format_table

    done = sum(d for _, d, _ in states)
    total = sum(t for _, _, t in states)
    points_done = sum(1 for _, d, t in states if d == t)
    title = (
        f"{_completion_line(label, done, total)}, "
        f"points {points_done}/{len(states)}"
    )
    rows = [
        [name, f"{d}/{t}", "complete" if d == t else ("partial" if d else "pending")]
        for name, d, t in states
    ]
    return format_table(["point", "trials", "state"], rows, title=title)


def _has_experiment_header(text: str) -> bool:
    """Whether JSONL text opens with an ``{"experiment": ...}`` header line."""
    lines = text.splitlines()
    if not lines:
        return False
    try:
        head = json.loads(lines[0])
    except ValueError:
        return False
    return isinstance(head, dict) and "experiment" in head


def _load_point_records(path: Path, campaign_spec) -> TrialRecordSet:
    """Load one grid point's checkpoint, trusting the file's own trial count.

    An adaptive run stops a point early (or tops it up past the sweep's
    ``n_trials``) and rewrites the file header to the count actually on
    disk; the manifest spec still carries the initial count, so the file
    header decides completeness.  Identity is still checked -- the count is
    the only field allowed to differ from the manifest's expansion.
    """
    from dataclasses import replace

    from repro.exec.checkpoint import parse_results_text

    text = path.read_text()
    spec_dict, _ = parse_results_text(text)
    spec = campaign_spec
    if spec_dict is not None and isinstance(spec_dict.get("n_trials"), int):
        spec = replace(campaign_spec, n_trials=spec_dict["n_trials"])
    return TrialRecordSet.from_jsonl(text, spec=spec)


def _load_experiment_result(parser: argparse.ArgumentParser, raw: str) -> ExperimentResult:
    """Load a *finished* experiment from any results store or stream file."""
    path = Path(raw)
    if not path.exists():
        parser.error(f"results path {raw} does not exist")
    if path.is_file() and sniff_store(path) != DEFAULT_STORE:
        store = open_store(path)
        try:
            try:
                view = store.load_view()
            except ValueError as exc:
                parser.error(f"cannot read {raw}: {exc}")
            points = []
            for point_view in view.points:
                if not point_view.complete:
                    parser.error(
                        f"grid point {point_view.spec.label!r} is partial "
                        f"({point_view.n_done}/{point_view.spec.n_trials} "
                        "trials); finish the run first"
                    )
                records = store.point_records(point_view.index)
                points.append(
                    PointResult(
                        index=point_view.index,
                        point=point_view.point,
                        spec=records.spec,
                        records=records,
                        result=records.aggregate(),
                    )
                )
            return ExperimentResult(spec=view.spec, points=points)
        finally:
            store.close()
    if path.is_dir():
        manifest = path / MANIFEST_NAME
        if not manifest.exists():
            parser.error(
                f"results directory {raw} has no {MANIFEST_NAME} manifest; "
                "run the sweep through `repro run --results` first"
            )
        spec, _progress = read_manifest(manifest)
        points = []
        for index, (point, campaign_spec) in enumerate(spec.expanded()):
            point_path = campaign_results_path(path, index, campaign_spec)
            if not point_path.exists():
                parser.error(
                    f"grid point {campaign_spec.label!r} has no results file "
                    f"in {raw}; finish the run first (resume with the same "
                    "spec + --results)"
                )
            try:
                records = _load_point_records(point_path, campaign_spec)
            except ValueError as exc:
                parser.error(f"cannot parse {point_path}: {exc}")
            if not records.complete:
                parser.error(
                    f"grid point {campaign_spec.label!r} is partial "
                    f"({len(records.records)}/{records.spec.n_trials} trials); "
                    "finish the run first"
                )
            points.append(
                PointResult(
                    index=index,
                    point=point,
                    spec=records.spec,
                    records=records,
                    result=records.aggregate(),
                )
            )
        return ExperimentResult(spec=spec, points=points)
    text = path.read_text()
    if not _has_experiment_header(text):
        parser.error(
            f"{raw} is not an experiment stream or sweep results directory"
        )
    result = ExperimentResult.from_jsonl(text)
    if not result.complete:
        parser.error(f"experiment in {raw} is partial; finish the run first")
    return result


def cmd_pareto(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.analysis.decision import pareto_frontier, summarize_schemes
    from repro.analysis.reporting import format_pareto_table

    result = _load_experiment_result(parser, args.results)
    cost_params = {}
    if args.cost_params:
        try:
            cost_params = json.loads(args.cost_params)
        except ValueError as exc:
            parser.error(f"--cost-params is not valid JSON: {exc}")
        if not isinstance(cost_params, dict):
            parser.error("--cost-params must be a JSON object")
    try:
        summaries = summarize_schemes(
            result,
            metric=args.metric,
            confidence=args.confidence,
            method=args.method,
            cost=args.cost,
            cost_params=cost_params,
            axis=args.axis,
        )
    except ValueError as exc:
        parser.error(str(exc))
    title = (
        f"pareto: {result.spec.label} -- {args.metric} "
        f"({100 * args.confidence:g}% {args.method}) vs {args.cost} overhead"
    )
    print(format_pareto_table(summaries, metric=args.metric, title=title))
    frontier = pareto_frontier(summaries)
    names = ", ".join(str(s.scheme) for s in frontier) if frontier else "(empty)"
    print(f"pareto-optimal: {names}")
    return 0


def cmd_query(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.fault.runner import _canonical_json
    from repro.store import QueryFilter, count_query, query_records

    path = Path(args.results)
    if not path.exists():
        parser.error(f"results path {args.results} does not exist")
    flt = QueryFilter(
        campaign=args.campaign,
        point=args.point,
        scheme=args.scheme,
        fault_model=args.fault_model,
        detected=None if args.detected is None else args.detected == "true",
    )
    store = open_store(path)
    try:
        try:
            if args.count:
                print(count_query(store, flt))
                return 0
            shown = 0
            for point, trial, record in query_records(store, flt, limit=args.limit):
                if args.jsonl:
                    print(_canonical_json({"point": point, "record": record, "trial": trial}))
                else:
                    print(f"point={point} trial={trial} {_canonical_json(record)}")
                shown += 1
            if not args.jsonl:
                suffix = (
                    f" (stopped at --limit {args.limit})"
                    if args.limit is not None and shown == args.limit
                    else ""
                )
                print(f"query: {shown} matching record(s){suffix}", file=sys.stderr)
        except ValueError as exc:
            parser.error(f"cannot query {args.results}: {exc}")
    finally:
        store.close()
    return 0


def cmd_store_convert(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.store import convert_store

    try:
        dest, total = convert_store(args.results, args.to, out=args.out)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"converted {total} record(s) to the {args.to} store at {dest}")
    return 0


def _report_directory(
    parser: argparse.ArgumentParser, path: Path
) -> list[tuple[str, bool]]:
    """Render a sweep results directory (manifest-aware, else per-file).

    With a manifest, an interrupted sweep renders a per-point completion
    table instead of erroring out.  The table is computed from the JSONL
    files themselves (the ground truth); the manifest contributes the spec,
    so even never-started grid points render as ``pending`` rows.
    """
    from repro.analysis.reporting import format_experiment_result

    manifest = path / MANIFEST_NAME
    if manifest.exists():
        spec, _progress = read_manifest(manifest)
        points = []
        states: list[tuple[str, int, int]] = []
        for index, (point, campaign_spec) in enumerate(spec.expanded()):
            point_path = campaign_results_path(path, index, campaign_spec)
            if point_path.exists():
                records = _load_point_records(point_path, campaign_spec)
            else:
                records = TrialRecordSet(spec=campaign_spec)
            states.append((campaign_spec.label, len(records.records), records.spec.n_trials))
            points.append((index, point, records.spec, records))
        if not all(done == total for _, done, total in states):
            label = f"{spec.kind}: {spec.label}"
            return [(_format_partial_points(label, states), False)]
        complete_points = [
            PointResult(
                index=index,
                point=point,
                spec=campaign_spec,
                records=records,
                result=records.aggregate(),
            )
            for index, point, campaign_spec, records in points
        ]
        return [
            (
                format_experiment_result(
                    ExperimentResult(spec=spec, points=complete_points)
                ),
                True,
            )
        ]
    jsonl_files = sorted(p for p in path.iterdir() if p.suffix == ".jsonl")
    if not jsonl_files:
        parser.error(f"results directory {path} holds no JSONL files")
    return [_report_file(parser, p) for p in jsonl_files]


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, sweep and report the paper's experiments from "
        "declarative JSON specs through pluggable executor backends.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run a campaign or sweep spec (auto-detected)"
    )
    _add_execution_flags(run)
    run.set_defaults(handler=cmd_run)

    sweep = commands.add_parser("sweep", help="run a sweep spec (requires a grid)")
    _add_execution_flags(sweep)
    sweep.add_argument(
        "--expand-only",
        action="store_true",
        help="print the expanded campaign specs as JSON lines and exit",
    )
    sweep.set_defaults(handler=cmd_sweep)

    worker = commands.add_parser(
        "worker",
        help="join a distributed run: pull trial batches from a coordinator",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (printed by `repro run --executor distributed`)",
    )
    worker.add_argument(
        "--authkey",
        default=None,
        help="shared secret; must match the coordinator's (falls back to "
        "the REPRO_AUTHKEY environment variable, which keeps the secret "
        "off the process table)",
    )
    worker.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        metavar="N",
        help="exit after completing N batches (worker recycling); remaining "
        "work is re-leased to other workers",
    )
    worker.add_argument(
        "--import",
        dest="imports",
        action="append",
        default=[],
        metavar="MODULE",
        help="import a module (dotted name or .py path) registering extra "
        "trial kernels before pulling work; repeatable",
    )
    worker.set_defaults(handler=cmd_worker)

    list_parser = commands.add_parser(
        "list-campaigns", help="list registered trial kernels with summaries"
    )
    list_parser.set_defaults(handler=cmd_list_campaigns)

    list_models = commands.add_parser(
        "list-fault-models",
        help="list registered fault models with summaries",
    )
    list_models.set_defaults(handler=cmd_list_fault_models)

    faultload = commands.add_parser(
        "faultload",
        help="generate or inspect pre-materialized faultload artifacts",
    )
    faultload_commands = faultload.add_subparsers(
        dest="faultload_command", required=True
    )
    generate = faultload_commands.add_parser(
        "generate",
        help="materialize a reproducible faultload JSONL from a fault model",
    )
    generate.add_argument(
        "--model",
        required=True,
        help="registered fault model name (see `repro list-fault-models`)",
    )
    generate.add_argument(
        "--trials", type=int, required=True, metavar="N", help="trials to materialize"
    )
    generate.add_argument(
        "--out", required=True, metavar="PATH", help="output JSONL path"
    )
    generate.add_argument(
        "--seed", type=int, default=0, help="root seed of the faultload (default: 0)"
    )
    generate.add_argument(
        "--site",
        default="linear",
        help="fault site every spec targets (default: linear)",
    )
    generate.add_argument(
        "--dtype",
        default=None,
        help="bit-width dtype of the flips (default: the model's own)",
    )
    generate.add_argument(
        "--bits",
        type=int,
        nargs="+",
        default=None,
        metavar="BIT",
        help="candidate bit positions to draw from (default: the full word)",
    )
    generate.add_argument(
        "--n-faults",
        type=int,
        default=1,
        metavar="N",
        help="fault specs per trial (default: 1)",
    )
    generate.add_argument(
        "--occurrence",
        type=int,
        default=0,
        metavar="N",
        help="matching corrupt() offers each spec skips before firing (default: 0)",
    )
    generate.add_argument(
        "--shape",
        type=int,
        nargs="+",
        default=None,
        metavar="DIM",
        help="tensor shape to pin element indices against (default: unpinned)",
    )
    generate.add_argument(
        "--model-params",
        default="",
        metavar="JSON",
        help='model parameters as a JSON object, e.g. \'{"burst_len": 3}\'',
    )
    generate.add_argument(
        "--name", default="", help="optional label stored in the artifact header"
    )
    generate.set_defaults(handler=cmd_faultload_generate)

    describe = faultload_commands.add_parser(
        "describe",
        help="validate a faultload artifact and print its header",
    )
    describe.add_argument("faultload", help="path to a faultload JSONL artifact")
    describe.add_argument(
        "--digests",
        action="store_true",
        help="also print the per-trial fault-spec digests",
    )
    describe.set_defaults(handler=cmd_faultload_describe)

    bench = commands.add_parser(
        "bench",
        help="measure trials/sec per kernel (scalar vs batched) into BENCH_<n>.json",
    )
    bench.add_argument(
        "bench_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the harness (see `repro bench --help`)",
    )
    bench.set_defaults(handler=cmd_bench)

    report = commands.add_parser(
        "report", help="re-render finished results without re-running"
    )
    report.add_argument(
        "results",
        nargs="+",
        help="results paths: JSONL files, sweep directories, and/or sqlite "
        "databases (backend auto-detected)",
    )
    report.set_defaults(handler=cmd_report)

    query = commands.add_parser(
        "query",
        help="filter trial records out of any results store (finished or "
        "in-flight) without loading whole record sets",
    )
    query.add_argument(
        "results",
        help="results path: a JSONL file, a sweep directory, or a sqlite "
        "database (backend auto-detected)",
    )
    query.add_argument(
        "--campaign",
        default=None,
        help="match a trial-kernel name, or a substring of a point label "
        "(e.g. 'scheme=tensor')",
    )
    query.add_argument(
        "--point", type=int, default=None, metavar="N", help="grid point index"
    )
    query.add_argument(
        "--scheme", default=None, help="match the point's 'scheme' parameter"
    )
    query.add_argument(
        "--fault-model",
        default=None,
        help="match the point's 'fault_model' parameter (absent means seu)",
    )
    query.add_argument(
        "--detected",
        choices=["true", "false"],
        default=None,
        help="keep only records whose 'detected' field is truthy/falsy",
    )
    query.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="stop after N matching records",
    )
    query.add_argument(
        "--count",
        action="store_true",
        help="print the matching record count only (indexed on sqlite)",
    )
    query.add_argument(
        "--jsonl",
        action="store_true",
        help='emit canonical {"point":..,"record":..,"trial":..} JSON lines',
    )
    query.set_defaults(handler=cmd_query)

    store = commands.add_parser(
        "store", help="results-store maintenance (convert between backends)"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    convert = store_commands.add_parser(
        "convert",
        help="migrate a results path to another store backend (works on "
        "finished and partially-complete runs; partial runs resume on the "
        "new backend exactly where they left off)",
    )
    convert.add_argument(
        "results", help="source results path (backend auto-detected)"
    )
    convert.add_argument(
        "--to",
        required=True,
        metavar="|".join(available_stores()),
        help="destination store backend",
    )
    convert.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="destination path (default: derived from the source, e.g. "
        "out/ -> out.db)",
    )
    convert.set_defaults(handler=cmd_store_convert)

    pareto = commands.add_parser(
        "pareto",
        help="join a finished scheme sweep's detection CIs with the roofline "
        "cost models and print the Pareto-optimal scheme set",
    )
    pareto.add_argument(
        "results",
        help="finished sweep results: a directory written by `repro run "
        "--results`, or an experiment JSONL stream",
    )
    pareto.add_argument(
        "--metric",
        default="detection_rate",
        choices=["detection_rate", "false_alarm_rate", "coverage"],
        help="pooled rate to trade against overhead (default: detection_rate)",
    )
    pareto.add_argument(
        "--confidence",
        type=_positive_float,
        default=0.95,
        help="confidence level of the interval column (default: 0.95)",
    )
    pareto.add_argument(
        "--method",
        default="wilson",
        choices=["wilson", "clopper_pearson"],
        help="binomial interval method (default: wilson)",
    )
    pareto.add_argument(
        "--cost",
        default="attention_cost",
        help="deterministic cost campaign pricing each scheme "
        "(default: attention_cost; transformer_cost also works)",
    )
    pareto.add_argument(
        "--cost-params",
        default="",
        metavar="JSON",
        help="cost-model parameters as a JSON object, "
        'e.g. \'{"seq_len": 2048, "heads": 16}\'',
    )
    pareto.add_argument(
        "--axis",
        default="scheme",
        help="grid axis to pool points by (default: scheme)",
    )
    pareto.set_defaults(handler=cmd_pareto)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["bench"]:
        # Forwarded wholesale: the harness owns its argparse surface, and
        # argparse.REMAINDER mis-parses a leading option (e.g. `bench --smoke`).
        from repro.bench.harness import main as bench_main

        return bench_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(parser, args)


if __name__ == "__main__":
    sys.exit(main())
