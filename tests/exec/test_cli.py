"""Tests for the umbrella ``repro`` CLI."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.exec.cli import main
from repro.exec.engine import run_experiment
from repro.exec.spec import ExperimentSpec
from repro.store import MANIFEST_NAME, progress_sidecar_path

CAMPAIGN = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=6,
    seed=7,
    params={"bit_error_rate": 1e-7, "scheme": "tensor", "rows": 32, "cols": 32},
)

SWEEP = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=4,
    seed=7,
    params={"rows": 32, "cols": 32},
    grid={"scheme": ["tensor", "element"], "bit_error_rate": [1e-8, 1e-7]},
    name="cli-sweep",
)

#: CI's Pareto smoke spec: three schemes of the transformer kernel.
PARETO = ExperimentSpec(
    campaign="transformer_inference",
    n_trials=2,
    seed=7,
    params={"hidden_dim": 16, "seq_len": 8},
    grid={"scheme": ["none", "efta_unified", "decoupled"]},
    name="ci-pareto",
)

THRESHOLD = ExperimentSpec(
    campaign="abft_detection_sweep",
    n_trials=6,
    seed=3,
    params={"thresholds": [0.01, 0.3], "rows": 32, "cols": 32, "depth": 32},
)


@pytest.fixture
def campaign_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(CAMPAIGN.to_json())
    return path


@pytest.fixture
def sweep_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(SWEEP.to_json())
    return path


class TestRun:
    def test_runs_campaign_and_reports(self, campaign_file, tmp_path, capsys):
        results = tmp_path / "out.jsonl"
        assert main(["run", str(campaign_file), "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "campaign: abft_error_coverage (6 trials)" in out
        assert "detection rate" in out
        assert results.exists()

    def test_runs_sweep_with_grid_table(self, sweep_file, capsys):
        assert main(["run", str(sweep_file)]) == 0
        out = capsys.readouterr().out
        assert "sweep: cli-sweep (4 campaigns x 4 trials)" in out
        assert out.splitlines()[1].split()[:2] == ["bit_error_rate", "scheme"]

    def test_threshold_campaign_renders_series(self, tmp_path, capsys):
        spec_file = tmp_path / "threshold.json"
        spec_file.write_text(THRESHOLD.to_json())
        assert main(["run", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "fault detection rate" in out
        assert "false alarm rate" in out

    @pytest.mark.parametrize("executor", ["process"])
    def test_parallel_backends_byte_identical_to_serial(
        self, sweep_file, tmp_path, executor, capsys
    ):
        serial_dir = tmp_path / "serial"
        other_dir = tmp_path / executor
        assert main(["run", str(sweep_file), "--results", str(serial_dir)]) == 0
        assert (
            main(
                [
                    "run",
                    str(sweep_file),
                    "--executor",
                    executor,
                    "--workers",
                    "3",
                    "--results",
                    str(other_dir),
                ]
            )
            == 0
        )
        for path in sorted(serial_dir.iterdir()):
            assert (other_dir / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("executor", ["serial", "process", "distributed"])
    def test_workers_below_one_is_a_usage_error(
        self, campaign_file, tmp_path, executor, workers, capsys
    ):
        results = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(
                ["run", str(campaign_file), "--executor", executor,
                 "--workers", workers, "--results", str(results)]
            )
        assert exc.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not results.exists()

    def test_missing_spec_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", str(tmp_path / "nope.json")])

    def test_unknown_executor_errors(self, campaign_file):
        with pytest.raises(ValueError, match="unknown executor"):
            main(["run", str(campaign_file), "--executor", "quantum"])

    def test_gridless_spec_refuses_a_results_directory(self, tmp_path, capsys):
        """An empty grid is one campaign checkpointed to one JSONL file; an
        existing directory is refused before anything runs."""
        spec_file = tmp_path / "gridless.json"
        spec_file.write_text(json.dumps({**CAMPAIGN.to_dict(), "grid": {}}))
        results = tmp_path / "out"
        results.mkdir()
        with pytest.raises(SystemExit):
            main(["run", str(spec_file), "--results", str(results)])
        assert "is a directory" in capsys.readouterr().err
        assert list(results.iterdir()) == []

    def test_sweep_results_path_file_rejected(self, sweep_file, tmp_path):
        blocker = tmp_path / "blocker.jsonl"
        blocker.write_text("")
        with pytest.raises(SystemExit):
            main(["run", str(sweep_file), "--results", str(blocker)])

    def test_expand_only_prints_campaigns(self, sweep_file, tmp_path, capsys):
        results = tmp_path / "out"
        assert main(["run", str(sweep_file), "--expand-only", "--results", str(results)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        specs = [json.loads(line) for line in lines]
        assert {s["params"]["scheme"] for s in specs} == {"tensor", "element"}
        assert not results.exists()  # nothing ran


class TestListCampaigns:
    def test_lists_sorted_names_with_summaries(self, capsys):
        assert main(["list-campaigns"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted(names)
        assert "abft_error_coverage" in names
        assert "attention_cost" in names
        by_name = {line.split()[0]: line for line in lines}
        # The one-line docstring summary rides next to the kernel name.
        assert "burst fault events" in by_name["abft_error_coverage"]
        assert "Transformer forward pass" in by_name["transformer_inference"]

    def test_prints_only_the_summary_line_of_each_kernel(self, capsys):
        """Kernel docstrings carry modelling prose below their first line;
        the listing keeps to one line per campaign."""
        from repro.fault.runner import available_campaigns, get_campaign

        assert len(get_campaign("abft_error_coverage").trial.__doc__.strip().splitlines()) > 1
        assert main(["list-campaigns"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(available_campaigns())
        for line in lines:
            doc = (get_campaign(line.split()[0]).trial.__doc__ or "").strip()
            if doc:
                assert doc.splitlines()[0].strip() in line

    def test_marks_campaigns_accepting_fault_models(self, capsys):
        assert main(["list-campaigns"]) == 0
        by_name = {
            line.split()[0]: line
            for line in capsys.readouterr().out.strip().splitlines()
        }
        assert "[accepts fault_model]" in by_name["transformer_inference"]
        assert "[accepts fault_model]" in by_name["efta_site_resilience"]
        assert "[accepts fault_model]" not in by_name["abft_error_coverage"]


class TestListFaultModels:
    def test_lists_sorted_models_with_summaries(self, capsys):
        assert main(["list-fault-models"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted(names)
        assert "seu" in names
        assert "stuck_at_0" in names
        by_name = {line.split()[0]: line for line in lines}
        assert "Single-event upset" in by_name["seu"]


class TestFaultloadVerbs:
    def test_generate_then_describe(self, tmp_path, capsys):
        out = tmp_path / "fl.jsonl"
        assert main([
            "faultload", "generate", "--model", "stuck_at_0",
            "--trials", "3", "--seed", "7", "--out", str(out),
        ]) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["faultload", "describe", str(out), "--digests"]) == 0
        text = capsys.readouterr().out
        assert 'model: "stuck_at_0"' in text
        assert "n_trials: 3" in text
        assert "trial 2: " in text

    def test_generate_unknown_model_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "faultload", "generate", "--model", "nope",
                "--trials", "3", "--out", str(tmp_path / "fl.jsonl"),
            ])
        assert "unknown fault model" in capsys.readouterr().err

    def test_describe_bad_schema_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"faultload": {"schema_version": 99, "n_trials": 0}}\n')
        with pytest.raises(SystemExit):
            main(["faultload", "describe", str(bad)])
        assert "unsupported faultload schema version" in capsys.readouterr().err

    def test_run_replays_generated_faultload(self, tmp_path, capsys):
        fl = tmp_path / "fl.jsonl"
        assert main([
            "faultload", "generate", "--model", "stuck_at_0",
            "--trials", "3", "--out", str(fl),
        ]) == 0
        spec_file = tmp_path / "replay.json"
        spec_file.write_text(json.dumps({
            "campaign": "transformer_inference",
            "n_trials": 3,
            "seed": 5,
            "params": {"scheme": "none", "hidden_dim": 16, "seq_len": 8},
            "faultload": str(fl),
        }))
        results = tmp_path / "out.jsonl"
        assert main(["run", str(spec_file), "--results", str(results)]) == 0
        digests = [
            json.loads(line)["record"]["fault_digest"]
            for line in results.read_text().splitlines()[1:]
        ]
        from repro.fault.dictionary import load_faultload

        assert digests == [load_faultload(fl).digest_for(t) for t in range(3)]


class TestReport:
    def test_reports_campaign_file(self, campaign_file, tmp_path, capsys):
        results = tmp_path / "out.jsonl"
        main(["run", str(campaign_file), "--results", str(results)])
        capsys.readouterr()
        assert main(["report", str(results)]) == 0
        out = capsys.readouterr().out
        assert "campaign: abft_error_coverage (6 trials)" in out
        assert "detection rate" in out

    def test_reports_sweep_directory_via_manifest(self, sweep_file, tmp_path, capsys):
        results = tmp_path / "out"
        main(["run", str(sweep_file), "--results", str(results)])
        first = capsys.readouterr().out
        assert main(["report", str(results)]) == 0
        assert capsys.readouterr().out.strip() == first.strip()

    def test_reports_directory_without_manifest(self, sweep_file, tmp_path, capsys):
        results = tmp_path / "out"
        main(["run", str(sweep_file), "--results", str(results)])
        capsys.readouterr()
        (results / MANIFEST_NAME).unlink()
        assert main(["report", str(results)]) == 0
        out = capsys.readouterr().out
        # Falls back to one per-campaign block per JSONL file.
        assert out.count("campaign: cli-sweep/") == 4

    def test_incomplete_file_reports_partial_state(self, campaign_file, tmp_path, capsys):
        """An interrupted campaign renders its completion state and exits 1."""
        results = tmp_path / "out.jsonl"
        main(["run", str(campaign_file), "--results", str(results)])
        capsys.readouterr()
        truncated = "\n".join(results.read_text().splitlines()[:3]) + "\n"
        results.write_text(truncated)
        assert main(["report", str(results)]) == 1
        out = capsys.readouterr().out
        assert "partial run: 2/6 trials (33.3%)" in out

    def test_interrupted_campaign_persists_progress_sidecar(self, tmp_path, capsys):
        """A non-sweep run snapshots its progress into <results>.progress.json;
        `report` shows the snapshot next to the on-disk record count."""
        import json as json_module

        results = tmp_path / "out.jsonl"

        class Abort(Exception):
            pass

        def bomb(event):
            if event.kind == "trial" and event.trials_done == 3:
                raise Abort

        with pytest.raises(Abort):
            run_experiment(CAMPAIGN, results_path=results, progress=bomb)
        sidecar = progress_sidecar_path(results)
        assert sidecar.exists()
        snapshot = json_module.loads(sidecar.read_text())["progress"]
        assert snapshot["state"] == "partial"
        assert snapshot["trials_done"] == 3
        assert main(["report", str(results)]) == 1
        out = capsys.readouterr().out
        assert "partial run: 3/6 trials (50.0%)" in out
        assert "[last snapshot: 3/6 trials]" in out
        # Finishing the run removes the sidecar and reports cleanly again.
        run_experiment(CAMPAIGN, results_path=results)
        assert not sidecar.exists()
        capsys.readouterr()
        assert main(["report", str(results)]) == 0

    def test_report_renders_sidecar_when_no_records_landed(self, tmp_path, capsys):
        """A run killed before its first record leaves no JSONL at all, but
        the sidecar still lets `report` show the completion state."""
        from repro.exec.executors import Executor

        results = tmp_path / "never-started.jsonl"

        class Abort(Exception):
            pass

        class DiesBeforeFirstRecord(Executor):
            def execute(self, slices):
                raise Abort
                yield  # pragma: no cover - makes execute a generator

        with pytest.raises(Abort):
            run_experiment(
                CAMPAIGN, executor=DiesBeforeFirstRecord(), results_path=results
            )
        assert not results.exists()
        assert progress_sidecar_path(results).exists()
        assert main(["report", str(results)]) == 1
        out = capsys.readouterr().out
        assert "partial run: 0/6 trials (0.0%)" in out
        assert "progress snapshot; no trial records on disk" in out

    def test_partial_sweep_directory_reports_point_states(
        self, sweep_file, tmp_path, capsys
    ):
        """A killed sweep renders a per-point completion table and exits 1."""
        results = tmp_path / "out"

        class Killed(Exception):
            pass

        def kill_after_first_point(event):
            if event.kind == "point":
                raise Killed

        with pytest.raises(Killed):
            run_experiment(SWEEP, results_path=results, progress=kill_after_first_point)
        assert main(["report", str(results)]) == 1
        out = capsys.readouterr().out
        assert "sweep: cli-sweep -- partial run: 4/16 trials (25.0%), points 1/4" in out
        assert out.count("complete") == 1
        assert out.count("pending") == 3
        # Finishing the run flips the report back to the full table, exit 0.
        run_experiment(SWEEP, results_path=results)
        capsys.readouterr()
        assert main(["report", str(results)]) == 0
        assert "sweep: cli-sweep (4 campaigns x 4 trials)" in capsys.readouterr().out

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path / "ghost.jsonl")])

    def test_campaign_named_experiment_not_misdetected(self, tmp_path, capsys):
        """Header detection must parse JSON, not substring-match 'experiment'."""
        spec = ExperimentSpec.from_dict({**CAMPAIGN.to_dict(), "name": "experiment"})
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        results = tmp_path / "out.jsonl"
        main(["run", str(spec_file), "--results", str(results)])
        capsys.readouterr()
        assert main(["report", str(results)]) == 0
        assert "campaign: experiment (6 trials)" in capsys.readouterr().out

    def test_reports_experiment_stream_file(self, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        stream.write_text(run_experiment(SWEEP).to_jsonl())
        assert main(["report", str(stream)]) == 0
        assert "sweep: cli-sweep" in capsys.readouterr().out


class TestPareto:
    """`repro pareto` reads every layout a finished sweep can take."""

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pareto")
        run_experiment(PARETO, results_path=root / "out")
        run_experiment(PARETO, results_path=root / "out.db", store="sqlite")
        (root / "stream.jsonl").write_text(run_experiment(PARETO).to_jsonl())
        return root

    def test_same_frontier_from_every_layout(self, finished, capsys):
        outputs = []
        for name in ("out", "out.db", "stream.jsonl"):
            assert main(["pareto", str(finished / name)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].startswith("pareto: ci-pareto -- detection_rate")
        assert outputs[0].rstrip().endswith("pareto-optimal: none, efta_unified")

    @pytest.mark.parametrize("layout", ["jsonl", "sqlite", "stream"])
    def test_killed_sweep_refused(self, tmp_path, capsys, layout):
        results = tmp_path / {"jsonl": "out", "sqlite": "out.db", "stream": "s.jsonl"}[layout]
        if layout == "stream":
            lines = run_experiment(PARETO).to_jsonl().splitlines()
            results.write_text("\n".join(lines[:-1]) + "\n")
        else:

            class Killed(Exception):
                pass

            def kill_at_third_trial(event):
                if event.kind == "trial" and event.trials_done == 3:
                    raise Killed

            with pytest.raises(Killed):
                run_experiment(
                    PARETO,
                    results_path=results,
                    store=layout,
                    progress=kill_at_third_trial,
                )
        with pytest.raises(SystemExit) as exc:
            main(["pareto", str(results)])
        assert exc.value.code == 2
        assert "is partial" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [("[1, 2]", "must be a JSON object"), ("{seq_len", "is not valid JSON")],
    )
    def test_cost_params_must_be_a_json_object(self, finished, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["pareto", str(finished / "out"), "--cost-params", value])
        assert exc.value.code == 2
        assert f"--cost-params {message}" in capsys.readouterr().err


class TestProgressFlag:
    @pytest.mark.parametrize("executor", ["serial", "process", "distributed"])
    def test_every_backend_emits_monotonic_heartbeats(
        self, campaign_file, executor, capfd
    ):
        assert (
            main(
                [
                    "run",
                    str(campaign_file),
                    "--executor",
                    executor,
                    "--workers",
                    "2",
                    "--progress",
                    "--progress-interval",
                    "0",
                ]
            )
            == 0
        )
        err = capfd.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("progress: ")]
        assert lines, f"no heartbeat lines from backend {executor}: {err!r}"
        done = [int(line.split()[1].split("/")[0]) for line in lines]
        assert done == sorted(done), "progress counts must be monotonic"
        assert done[-1] == 6
        assert any("ETA" in line for line in lines)
        assert "done in" in lines[-1]
        # Plain text only: no carriage returns or cursor control in CI logs.
        assert "\r" not in err and "\x1b" not in err

    def test_progress_off_by_default(self, campaign_file, capsys):
        assert main(["run", str(campaign_file)]) == 0
        assert "progress:" not in capsys.readouterr().err

    def test_distributed_flags_rejected_for_other_backends(self, campaign_file):
        for flags in (
            ["--lease-timeout", "5"],
            ["--no-spawn-workers"],
            ["--bind", "0.0.0.0:7777"],
            ["--authkey", "secret"],
            ["--stall-timeout", "5"],
            ["--worker-import", "my_kernels"],
            ["--scale", "queue-depth"],
            ["--max-workers", "4"],
            ["--max-respawns", "2"],
        ):
            with pytest.raises(SystemExit):
                main(["run", str(campaign_file), *flags])

    def test_unknown_scale_policy_rejected(self, campaign_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    str(campaign_file),
                    "--executor",
                    "distributed",
                    "--scale",
                    "thermostat",
                ]
            )

    def test_distributed_autoscale_flags_run_end_to_end(self, tmp_path, capsys):
        """`--scale queue-depth --max-workers N` flow through to the
        executor and the elastic run still completes and reports."""
        kernel_path = Path(__file__).with_name("chaos_kernel.py")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            ExperimentSpec(
                campaign="chaos_sleep", n_trials=4, seed=1, params={"sleep": 0.0}
            ).to_json()
        )
        assert (
            main(
                [
                    "run",
                    str(spec_file),
                    "--executor",
                    "distributed",
                    "--scale",
                    "queue-depth",
                    "--max-workers",
                    "2",
                    "--max-respawns",
                    "4",
                    "--worker-import",
                    str(kernel_path),
                ]
            )
            == 0
        )
        assert "chaos_sleep" in capsys.readouterr().out

    def test_negative_progress_interval_rejected(self, campaign_file):
        with pytest.raises(SystemExit):
            main(["run", str(campaign_file), "--progress", "--progress-interval", "-1"])

    def test_worker_import_runs_out_of_tree_kernel_distributed(
        self, tmp_path, capsys
    ):
        """--worker-import registers an out-of-tree kernel in both the
        coordinator (aggregation) and its spawned workers (execution)."""
        kernel_path = Path(__file__).with_name("chaos_kernel.py")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            ExperimentSpec(
                campaign="chaos_sleep", n_trials=2, seed=1, params={"sleep": 0.0}
            ).to_json()
        )
        assert (
            main(
                [
                    "run",
                    str(spec_file),
                    "--executor",
                    "distributed",
                    "--worker-import",
                    str(kernel_path),
                ]
            )
            == 0
        )
        assert "chaos_sleep" in capsys.readouterr().out

    def test_worker_requires_valid_address(self):
        with pytest.raises(SystemExit):
            main(["worker", "--connect", "not-an-address"])

    def test_worker_reports_authkey_mismatch_cleanly(self, capsys, monkeypatch):
        from multiprocessing import AuthenticationError

        def fake_run_worker(*args, **kwargs):
            raise AuthenticationError("digest received was wrong")

        import repro.exec.distributed as distributed_module

        monkeypatch.setattr(distributed_module, "run_worker", fake_run_worker)
        assert main(["worker", "--connect", "127.0.0.1:7777", "--authkey", "x"]) == 1
        assert "--authkey does not match" in capsys.readouterr().err

    def test_worker_requires_some_authkey(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUTHKEY", raising=False)
        with pytest.raises(SystemExit):
            main(["worker", "--connect", "127.0.0.1:7777"])


class TestTrialBatchFlag:
    def test_trial_batch_exported_to_environment(self, campaign_file, tmp_path, monkeypatch):
        from repro.fault.runner import TRIAL_BATCH_ENV

        monkeypatch.delenv(TRIAL_BATCH_ENV, raising=False)
        results = tmp_path / "out.jsonl"
        assert main(
            ["run", str(campaign_file), "--results", str(results), "--trial-batch", "4"]
        ) == 0
        assert os.environ.get(TRIAL_BATCH_ENV) == "4"

    def test_trial_batch_must_be_positive(self, campaign_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", str(campaign_file), "--trial-batch", "0"])
        assert "--trial-batch must be >= 1" in capsys.readouterr().err

    def test_batched_run_matches_unbatched_run(self, campaign_file, tmp_path, monkeypatch):
        from repro.fault.runner import TRIAL_BATCH_ENV

        monkeypatch.delenv(TRIAL_BATCH_ENV, raising=False)
        scalar = tmp_path / "scalar.jsonl"
        batched = tmp_path / "batched.jsonl"
        assert main(["run", str(campaign_file), "--results", str(scalar),
                     "--trial-batch", "1"]) == 0
        assert main(["run", str(campaign_file), "--results", str(batched),
                     "--trial-batch", "4"]) == 0
        assert batched.read_bytes() == scalar.read_bytes()


class TestStoreCli:
    """The `--store` flag, the `query` verb and `store convert`."""

    def test_sqlite_run_report_and_parity(self, sweep_file, tmp_path, capsys):
        jsonl_dir = tmp_path / "out-jsonl"
        db = tmp_path / "out.db"
        assert main(["run", str(sweep_file), "--results", str(jsonl_dir)]) == 0
        assert main(
            ["run", str(sweep_file), "--results", str(db), "--store", "sqlite"]
        ) == 0
        jsonl_report = None
        capsys.readouterr()
        assert main(["report", str(jsonl_dir)]) == 0
        jsonl_report = capsys.readouterr().out
        assert main(["report", str(db)]) == 0
        assert capsys.readouterr().out == jsonl_report

    def test_unknown_store_rejected(self, sweep_file, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    str(sweep_file),
                    "--results",
                    str(tmp_path / "x"),
                    "--store",
                    "parquet",
                ]
            )
        assert "unknown --store 'parquet'" in capsys.readouterr().err

    def test_store_layout_error_is_a_usage_error(self, sweep_file, tmp_path, capsys):
        """The store's own layout rule refuses --results before anything runs."""
        results = tmp_path / "out"
        results.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["run", str(sweep_file), "--results", str(results), "--store", "sqlite"])
        assert exc.value.code == 2
        assert "the sqlite store keeps one database file" in capsys.readouterr().err
        assert list(results.iterdir()) == []

    @pytest.mark.parametrize("store", ["jsonl", "sqlite"])
    def test_query_counts_and_streams(self, sweep_file, tmp_path, capsys, store):
        results = tmp_path / ("out.db" if store == "sqlite" else "out")
        main(["run", str(sweep_file), "--results", str(results), "--store", store])
        capsys.readouterr()
        assert main(["query", str(results), "--count"]) == 0
        assert capsys.readouterr().out.strip() == "16"
        assert main(["query", str(results), "--scheme", "tensor", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "8"
        assert main(["query", str(results), "--point", "0", "--limit", "2"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2 and all(line.startswith("point=0 ") for line in lines)
        assert "query: 2 matching record(s) (stopped at --limit 2)" in captured.err

    def test_query_limit_zero_prints_no_record(self, sweep_file, tmp_path, capsys):
        results = tmp_path / "out"
        main(["run", str(sweep_file), "--results", str(results)])
        capsys.readouterr()
        assert main(["query", str(results), "--limit", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "query: 0 matching record(s)" in captured.err

    def test_query_negative_limit_is_a_usage_error(self, sweep_file, tmp_path, capsys):
        results = tmp_path / "out"
        main(["run", str(sweep_file), "--results", str(results)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["query", str(results), "--limit", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --limit: -1 is negative" in captured.err

    def test_query_jsonl_output_is_canonical(self, sweep_file, tmp_path, capsys):
        import json as json_module

        results = tmp_path / "out"
        main(["run", str(sweep_file), "--results", str(results)])
        capsys.readouterr()
        assert main(["query", str(results), "--limit", "1", "--jsonl"]) == 0
        line = capsys.readouterr().out.strip()
        payload = json_module.loads(line)
        assert set(payload) == {"point", "trial", "record"}
        assert list(payload) == sorted(payload)  # canonical key order

    def test_query_detected_filter_partitions(self, sweep_file, tmp_path, capsys):
        results = tmp_path / "out"
        main(["run", str(sweep_file), "--results", str(results)])
        capsys.readouterr()
        counts = {}
        for flag in ("true", "false"):
            assert main(["query", str(results), "--detected", flag, "--count"]) == 0
            counts[flag] = int(capsys.readouterr().out.strip())
        assert counts["true"] + counts["false"] == 16

    def test_store_convert_round_trip(self, sweep_file, tmp_path, capsys):
        results = tmp_path / "out"
        main(["run", str(sweep_file), "--results", str(results)])
        db = tmp_path / "converted.db"
        capsys.readouterr()
        assert main(
            ["store", "convert", str(results), "--to", "sqlite", "--out", str(db)]
        ) == 0
        assert "converted 16 record(s) to the sqlite store" in capsys.readouterr().out
        back = tmp_path / "back"
        assert main(
            ["store", "convert", str(db), "--to", "jsonl", "--out", str(back)]
        ) == 0
        capsys.readouterr()
        for path in sorted(results.glob("*.jsonl")):
            assert (back / path.name).read_bytes() == path.read_bytes()
