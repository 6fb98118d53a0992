"""Tests for the pluggable results-store layer (``repro.store``).

Covers the registry, backend selection, the jsonl byte-compatibility
contract, the sqlite backend's durability/resume semantics, torn-write
recovery on both backends, filtered queries over finished and killed runs,
the JSONL read rules every reading verb of the CLI shares, and cross-backend
conversion.
"""

from __future__ import annotations

import json
import math
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.checkpoint import campaign_results_path, parse_results_text
from repro.exec.cli import main as cli_main
from repro.exec.engine import run_experiment
from repro.exec.executors import SerialExecutor
from repro.exec.spec import ExperimentSpec
from repro.fault.runner import available_campaigns, get_campaign
from repro.store import (
    DEFAULT_STORE,
    JsonlStore,
    NullStore,
    QueryFilter,
    ResultsStore,
    SqliteStore,
    available_stores,
    build_store,
    canonical_record_bytes,
    convert_store,
    count_query,
    default_convert_path,
    experiment_resume_key,
    get_store,
    open_store,
    progress_sidecar_path,
    query_records,
    register_store,
    sniff_store,
)
from repro.store import base as store_base

SWEEP = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=4,
    seed=7,
    params={"bit_error_rate": 1e-7, "rows": 32, "cols": 32},
    grid={"scheme": ["tensor", "element"]},
    name="store-sweep",
)

CAMPAIGN = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=5,
    seed=3,
    params={"bit_error_rate": 1e-7, "scheme": "tensor", "rows": 32, "cols": 32},
)

BACKENDS = ["jsonl", "sqlite"]

COMPAT = Path(__file__).resolve().parents[1] / "fixtures" / "compat"


def _run(spec, path, store=None, **kwargs):
    return run_experiment(spec, results_path=path, store=store, **kwargs)


def _jsonl_point_files(spec: ExperimentSpec, results: Path) -> list[Path]:
    return [
        campaign_results_path(results, index, campaign_spec)
        for index, campaign_spec in enumerate(spec.expand())
    ]


class Killed(Exception):
    pass


class ExplodingExecutor(SerialExecutor):
    """Dies before producing a single record -- after the engine has already
    persisted its first progress snapshot (the record-less-abort shape)."""

    def execute(self, slices):
        raise Killed


def _killed_run(spec, path, store=None):
    """Run ``spec``, aborting after the first grid point completes."""

    def kill_after_first_point(event):
        if event.kind == "point":
            raise Killed

    with pytest.raises(Killed):
        _run(spec, path, store=store, progress=kill_after_first_point)


@pytest.fixture(autouse=True)
def _store_registry_snapshot():
    """Undo test-local register_store calls so reruns in one process pass."""
    saved = dict(store_base._STORES)
    yield
    store_base._STORES.clear()
    store_base._STORES.update(saved)


# --------------------------------------------------------------------------- #
# Registry and selection
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered(self):
        assert {"jsonl", "sqlite"} <= set(available_stores())
        assert get_store("jsonl") is JsonlStore
        assert get_store("sqlite") is SqliteStore

    def test_unknown_store_rejected(self):
        with pytest.raises(ValueError, match="unknown results store"):
            get_store("parquet")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_store("jsonl")
            class Clash(ResultsStore):  # pragma: no cover - never instantiated
                pass

    def test_build_store_without_path_is_null(self):
        store = build_store("sqlite", None, spec=SWEEP)
        assert isinstance(store, NullStore)

    def test_build_store_instance_passthrough(self, tmp_path):
        instance = JsonlStore(tmp_path / "out", spec=SWEEP)
        assert build_store(instance, tmp_path / "out", spec=SWEEP) is instance

    def test_build_store_explicit_name_beats_spec_field(self, tmp_path):
        spec = ExperimentSpec.from_dict({**SWEEP.to_dict(), "store": "sqlite"})
        chosen = build_store("jsonl", tmp_path / "out", spec=spec)
        assert isinstance(chosen, JsonlStore)
        fallback = build_store(None, tmp_path / "out.db", spec=spec)
        assert isinstance(fallback, SqliteStore)
        default = build_store(None, tmp_path / "out", spec=SWEEP)
        assert isinstance(default, JsonlStore)

    def test_null_store_reads_refused(self):
        store = NullStore(spec=SWEEP)
        for call in (
            store.load_view,
            lambda: store.point_records(0),
            store.count_records,
            lambda: store.export_canonical(0),
        ):
            with pytest.raises(ValueError, match="persists nothing to read"):
                call()


class TestSpecStoreField:
    def test_store_field_round_trips(self):
        spec = ExperimentSpec.from_dict({**SWEEP.to_dict(), "store": "sqlite"})
        assert spec.store == "sqlite"
        assert ExperimentSpec.from_dict(spec.to_dict()).store == "sqlite"

    def test_empty_store_not_serialised(self):
        assert "store" not in SWEEP.to_dict()

    def test_store_excluded_from_resume_identity(self):
        with_store = ExperimentSpec.from_dict({**SWEEP.to_dict(), "store": "sqlite"})
        assert experiment_resume_key(with_store) == experiment_resume_key(SWEEP)


class TestSniff:
    def test_sniffs_each_layout(self, tmp_path):
        jsonl_dir = tmp_path / "sweep"
        _run(SWEEP, jsonl_dir)
        db = tmp_path / "sweep.db"
        _run(SWEEP, db, store="sqlite")
        assert sniff_store(jsonl_dir) == "jsonl"
        assert sniff_store(_jsonl_point_files(SWEEP, jsonl_dir)[0]) == "jsonl"
        assert sniff_store(db) == "sqlite"
        assert isinstance(open_store(jsonl_dir), JsonlStore)
        assert isinstance(open_store(db), SqliteStore)


# --------------------------------------------------------------------------- #
# Cross-backend write/read contract
# --------------------------------------------------------------------------- #
class TestByteParity:
    def test_sqlite_export_matches_jsonl_files(self, tmp_path):
        """A sqlite run's canonical export is byte-identical to the files a
        jsonl run of the same spec leaves on disk."""
        jsonl_dir = tmp_path / "sweep"
        _run(SWEEP, jsonl_dir)
        db = tmp_path / "sweep.db"
        _run(SWEEP, db, store="sqlite")
        store = open_store(db)
        try:
            for index, path in enumerate(_jsonl_point_files(SWEEP, jsonl_dir)):
                assert store.export_canonical(index) == path.read_bytes()
        finally:
            store.close()

    def test_jsonl_export_matches_own_files(self, tmp_path):
        results = tmp_path / "sweep"
        _run(SWEEP, results)
        store = open_store(results)
        for index, path in enumerate(_jsonl_point_files(SWEEP, results)):
            assert store.export_canonical(index) == path.read_bytes()

    def test_campaign_parity(self, tmp_path):
        jsonl_file = tmp_path / "out.jsonl"
        _run(CAMPAIGN, jsonl_file)
        db = tmp_path / "out.db"
        _run(CAMPAIGN, db, store="sqlite")
        store = open_store(db)
        try:
            assert store.export_canonical(0) == jsonl_file.read_bytes()
        finally:
            store.close()


#: A cheap spec of every built-in campaign: (n_trials, params).
CAMPAIGNS = {
    "abft_detection_sweep": (3, {"thresholds": [0.01, 0.3], "rows": 32, "cols": 32}),
    "abft_error_coverage": (3, {"bit_error_rate": 1e-6, "rows": 32, "cols": 32, "depth": 16}),
    "attention_cost": (1, {"scheme": "efta_unified"}),
    "efta_site_resilience": (3, {"site": "gemm_qk", "seq_len": 32, "head_dim": 16}),
    "restriction_error_distribution": (3, {}),
    "snvr_detection_sweep": (3, {"thresholds": [1e-4, 0.5]}),
    "transformer_cost": (1, {"scheme": "efta_unified"}),
    "transformer_inference": (3, {"hidden_dim": 16, "seq_len": 8}),
}


def _reencoded(data: bytes) -> bytes:
    return canonical_record_bytes(*parse_results_text(data.decode()))


class TestOneEncoder:
    """Every writer, and every file an older release wrote, spells the
    checkpoint line format as the one encoder, ``canonical_record_bytes``."""

    def test_every_builtin_campaign_has_a_spec(self):
        kernels = {n: get_campaign(n).trial.__module__ for n in available_campaigns()}
        assert sorted(CAMPAIGNS) == sorted(n for n, m in kernels.items() if m.startswith("repro."))

    @pytest.mark.parametrize("name", [
        "campaign.jsonl", "replay.jsonl", "sweep/000-compat-sweep_scheme=tensor.jsonl",
        "sweep/001-compat-sweep_scheme=element.jsonl",
    ])
    def test_encoder_reproduces_older_release_bytes(self, name):
        data = (COMPAT / name).read_bytes()
        assert _reencoded(data) == data

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_every_writer_agrees_with_the_encoder(self, campaign, tmp_path):
        n_trials, params = CAMPAIGNS[campaign]
        spec = ExperimentSpec(campaign=campaign, n_trials=n_trials, seed=5, params=params)
        path, db = tmp_path / "out.jsonl", tmp_path / "out.db"
        result = _run(spec, path)
        _run(spec, db, store="sqlite")
        data = path.read_bytes()
        assert _reencoded(data) == data
        assert result.points[0].records.to_jsonl().encode() == data
        for store in (open_store(path), open_store(db)):
            assert store.export_canonical(0) == data
            store.close()

    @pytest.mark.parametrize("record", [
        {"nested": {"z": [1, {"b": 2, "a": 1}], "a": None}, "flag": False},
        {"text": "d\u00e9j\u00e0 vu \u2713", "empty": ""},
        {"tiny": 1e-300, "third": 0.1, "neg_zero": -0.0, "count": 2**63 + 1},
        {"nan": math.nan, "inf": math.inf, "ninf": -math.inf},
    ], ids=["nested", "unicode", "numbers", "non-finite"])
    def test_decoded_records_reencode_to_the_same_bytes(self, record):
        data = canonical_record_bytes({"campaign": "x"}, {0: record, 1: record})
        assert _reencoded(data) == data


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreViews:
    def _results_path(self, tmp_path, backend):
        return tmp_path / ("sweep.db" if backend == "sqlite" else "sweep")

    def test_complete_run_view(self, tmp_path, backend):
        path = self._results_path(tmp_path, backend)
        _run(SWEEP, path, store=backend)
        store = open_store(path)
        try:
            view = store.load_view()
            assert view.complete
            assert [p.n_done for p in view.points] == [4, 4]
            assert store.count_records() == 8
            assert store.count_records([0]) == 4
            triples = list(store.iter_records())
            assert [(p, t) for p, t, _ in triples] == [
                (p, t) for p in (0, 1) for t in range(4)
            ]
            assert len(store.point_records(1).records) == 4
        finally:
            store.close()

    def test_killed_run_view_counts_only_committed(self, tmp_path, backend):
        path = self._results_path(tmp_path, backend)
        _killed_run(SWEEP, path, store=backend)
        store = open_store(path)
        try:
            view = store.load_view()
            assert not view.complete
            done = [p.n_done for p in view.points]
            assert done[0] == 4 and done[1] < 4
            assert store.count_records() == sum(done)
        finally:
            store.close()


# --------------------------------------------------------------------------- #
# Resume and refusal semantics
# --------------------------------------------------------------------------- #
class TestSqliteSemantics:
    def test_killed_run_resumes_to_jsonl_parity(self, tmp_path):
        reference = tmp_path / "reference"
        _run(SWEEP, reference)
        db = tmp_path / "sweep.db"
        _killed_run(SWEEP, db, store="sqlite")
        _run(SWEEP, db, store="sqlite")  # resume the survivor
        store = open_store(db)
        try:
            for index, path in enumerate(_jsonl_point_files(SWEEP, reference)):
                assert store.export_canonical(index) == path.read_bytes()
        finally:
            store.close()

    def test_rerun_of_complete_db_is_noop(self, tmp_path):
        db = tmp_path / "sweep.db"
        _run(SWEEP, db, store="sqlite")
        store = open_store(db)
        try:
            before = [store.export_canonical(i) for i in range(2)]
        finally:
            store.close()
        result = _run(SWEEP, db, store="sqlite")
        assert result.complete
        store = open_store(db)
        try:
            assert store.count_records() == 8
            assert [store.export_canonical(i) for i in range(2)] == before
        finally:
            store.close()

    def test_shrunken_experiment_is_a_different_experiment(self, tmp_path):
        # n_trials stays in the experiment resume key (same rule as the
        # jsonl manifest), so shrinking it is refused before any point loads.
        db = tmp_path / "sweep.db"
        _run(SWEEP, db, store="sqlite")
        shrunk = ExperimentSpec.from_dict({**SWEEP.to_dict(), "n_trials": 2})
        with pytest.raises(ValueError, match="different experiment"):
            _run(shrunk, db, store="sqlite")

    def test_shrunken_point_spec_refused_at_load(self, tmp_path):
        from dataclasses import replace

        db = tmp_path / "sweep.db"
        _run(SWEEP, db, store="sqlite")
        store = SqliteStore(db, spec=SWEEP)
        try:
            _, campaign_spec = SWEEP.expanded()[0]
            handle = store.point_store(0, campaign_spec, replace(campaign_spec, n_trials=2))
            with pytest.raises(ValueError, match="asks for only 2 trials"):
                handle.load()
        finally:
            store.close()

    def test_different_experiment_refused(self, tmp_path):
        db = tmp_path / "sweep.db"
        _run(SWEEP, db, store="sqlite")
        other = ExperimentSpec.from_dict({**SWEEP.to_dict(), "seed": 99})
        with pytest.raises(ValueError, match="different experiment"):
            _run(other, db, store="sqlite")

    def test_directory_path_refused(self, tmp_path):
        with pytest.raises(ValueError, match="database file"):
            _run(SWEEP, tmp_path, store="sqlite")

    def test_schema_version_mismatch_refused(self, tmp_path):
        db = tmp_path / "sweep.db"
        _run(SWEEP, db, store="sqlite")
        conn = sqlite3.connect(db)
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version"):
            open_store(db).load_view()


class TestStaleSidecar:
    """`validate_layout` must drop a sidecar left by a *different* aborted
    campaign before any record landed -- and only then."""

    def _abort_before_records(self, spec, path):
        with pytest.raises(Killed):
            run_experiment(spec, executor=ExplodingExecutor(), results_path=path)

    def test_stale_sidecar_of_other_spec_dropped(self, tmp_path):
        results = tmp_path / "out.jsonl"
        self._abort_before_records(CAMPAIGN, results)
        sidecar = progress_sidecar_path(results)
        assert sidecar.exists() and not results.exists()
        other = ExperimentSpec.from_dict({**CAMPAIGN.to_dict(), "seed": 99})
        JsonlStore(results, spec=other).validate_layout()
        assert not sidecar.exists()

    def test_fresh_run_over_stale_sidecar_reports_own_progress(self, tmp_path):
        """The regression: without the drop, a fresh run of another spec
        would briefly advertise the aborted spec's snapshot as its own."""
        results = tmp_path / "out.jsonl"
        self._abort_before_records(CAMPAIGN, results)
        other = ExperimentSpec.from_dict({**CAMPAIGN.to_dict(), "seed": 99})
        result = _run(other, results)
        assert result.complete
        assert not progress_sidecar_path(results).exists()

    def test_same_spec_sidecar_retained_for_resume(self, tmp_path):
        results = tmp_path / "out.jsonl"
        self._abort_before_records(CAMPAIGN, results)
        sidecar = progress_sidecar_path(results)
        JsonlStore(results, spec=CAMPAIGN).validate_layout()
        assert sidecar.exists()  # the interrupted-run marker must survive

    def test_torn_sidecar_dropped(self, tmp_path):
        results = tmp_path / "out.jsonl"
        sidecar = progress_sidecar_path(results)
        sidecar.write_text('{"spec": {"camp')  # torn mid-write
        JsonlStore(results, spec=CAMPAIGN).validate_layout()
        assert not sidecar.exists()

    def test_sidecar_with_records_on_disk_retained(self, tmp_path):
        # A campaign with records on disk: abort mid-run via trial events.
        results = tmp_path / "out.jsonl"
        seen = []

        def kill_after_two_trials(event):
            if event.kind == "trial":
                seen.append(event)
                if len(seen) >= 2:
                    raise Killed

        with pytest.raises(Killed):
            _run(CAMPAIGN, results, progress=kill_after_two_trials)
        sidecar = progress_sidecar_path(results)
        assert results.exists() and sidecar.exists()
        other = ExperimentSpec.from_dict({**CAMPAIGN.to_dict(), "seed": 99})
        JsonlStore(results, spec=other).validate_layout()
        assert sidecar.exists()  # records exist: the mismatch is load()'s call


# --------------------------------------------------------------------------- #
# Torn-write recovery
# --------------------------------------------------------------------------- #
class TestTornWriteRecovery:
    def test_jsonl_truncated_mid_record_resumes_byte_identical(self, tmp_path):
        reference = tmp_path / "ref.jsonl"
        _run(CAMPAIGN, reference)
        torn = tmp_path / "torn.jsonl"
        _run(CAMPAIGN, torn)
        # Tear the file mid-record: keep all but the last line, plus half of it.
        lines = torn.read_bytes().splitlines(keepends=True)
        torn.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        result = _run(CAMPAIGN, torn)
        assert result.complete
        assert torn.read_bytes() == reference.read_bytes()

    def test_sqlite_killed_mid_transaction_resumes_byte_identical(self, tmp_path):
        """A process killed between BEGIN and COMMIT must leave no trace:
        resume replays only committed trials and the canonical export equals
        a clean jsonl run's bytes."""
        reference = tmp_path / "ref.jsonl"
        _run(CAMPAIGN, reference)
        db = tmp_path / "out.db"
        _killed_run_sqlite_campaign = tmp_path / "partial.py"
        # First, commit a genuine prefix of the campaign into the database.
        def kill_after_two_trials(event):
            if event.kind == "trial" and event.trials_done >= 2:
                raise Killed

        with pytest.raises(Killed):
            _run(CAMPAIGN, db, store="sqlite", progress=kill_after_two_trials)
        committed = open_store(db)
        try:
            n_committed = committed.count_records()
        finally:
            committed.close()
        assert 0 < n_committed < CAMPAIGN.n_trials
        # Then die mid-transaction in a separate process: BEGIN IMMEDIATE,
        # insert a bogus trial row, and _exit before COMMIT.
        script = (
            "import os, sqlite3, sys\n"
            f"conn = sqlite3.connect({str(db)!r}, isolation_level=None)\n"
            "conn.execute('BEGIN IMMEDIATE')\n"
            "conn.execute(\"INSERT OR REPLACE INTO trials (point, trial, record)"
            " VALUES (0, 999, '{}')\")\n"
            "conn.execute('UPDATE points SET n_done = n_done + 1 WHERE point = 0')\n"
            "os._exit(1)\n"
        )
        _killed_run_sqlite_campaign.write_text(script)
        proc = subprocess.run([sys.executable, str(_killed_run_sqlite_campaign)])
        assert proc.returncode == 1
        # The uncommitted transaction rolls back on reopen: counts unchanged,
        # and the run resumes to bytes identical to the clean jsonl run.
        reopened = open_store(db)
        try:
            assert reopened.count_records() == n_committed
        finally:
            reopened.close()
        result = _run(CAMPAIGN, db, store="sqlite")
        assert result.complete
        store = open_store(db)
        try:
            assert store.export_canonical(0) == reference.read_bytes()
        finally:
            store.close()


# --------------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestQuery:
    def _finished(self, tmp_path, backend):
        path = tmp_path / ("sweep.db" if backend == "sqlite" else "sweep")
        _run(SWEEP, path, store=backend)
        return open_store(path)

    def test_point_level_filters(self, tmp_path, backend):
        store = self._finished(tmp_path, backend)
        try:
            assert count_query(store, QueryFilter()) == 8
            assert count_query(store, QueryFilter(point=1)) == 4
            assert count_query(store, QueryFilter(scheme="tensor")) == 4
            assert count_query(store, QueryFilter(scheme="hologram")) == 0
            assert count_query(store, QueryFilter(campaign="abft_error_coverage")) == 8
            assert count_query(store, QueryFilter(campaign="elsewhere")) == 0
            assert count_query(store, QueryFilter(fault_model="seu")) == 8
            assert count_query(store, QueryFilter(fault_model="stuck_at")) == 0
        finally:
            store.close()

    def test_record_level_filter_partitions_total(self, tmp_path, backend):
        store = self._finished(tmp_path, backend)
        try:
            detected = count_query(store, QueryFilter(detected=True))
            missed = count_query(store, QueryFilter(detected=False))
            assert detected + missed == 8
        finally:
            store.close()

    def test_streaming_limit(self, tmp_path, backend):
        store = self._finished(tmp_path, backend)
        try:
            rows = list(query_records(store, QueryFilter(scheme="element"), limit=3))
            assert len(rows) == 3
            assert all(point == 1 for point, _, _ in rows)
            assert list(query_records(store, QueryFilter(), limit=0)) == []
        finally:
            store.close()

    @pytest.mark.parametrize("limit", [0, 1, 8, 9, None])
    def test_limit_takes_the_first_matches(self, tmp_path, backend, limit):
        store = self._finished(tmp_path, backend)
        try:
            everything = list(query_records(store, QueryFilter()))
            assert len(everything) == 8
            assert list(query_records(store, QueryFilter(), limit=limit)) == everything[:limit]
        finally:
            store.close()

    def test_query_on_killed_run_counts_committed_only(self, tmp_path, backend):
        path = tmp_path / ("sweep.db" if backend == "sqlite" else "sweep")
        _killed_run(SWEEP, path, store=backend)
        store = open_store(path)
        try:
            total = count_query(store, QueryFilter())
            assert 4 <= total < 8
            assert count_query(store, QueryFilter(point=0)) == 4
            detected = count_query(store, QueryFilter(detected=True))
            missed = count_query(store, QueryFilter(detected=False))
            assert detected + missed == total
        finally:
            store.close()


# --------------------------------------------------------------------------- #
# Read rules every reading verb shares
# --------------------------------------------------------------------------- #
class TestJsonlReadRules:
    """`report`, `query`, `pareto` and `store convert` read a JSONL results
    path through the same store rules."""

    def test_records_past_the_header_count_are_not_read(self, tmp_path, capsys):
        path = tmp_path / "campaign.jsonl"
        _run(CAMPAIGN, path)
        header, *lines = [json.loads(line) for line in path.read_text().splitlines()]
        header["spec"]["n_trials"] = 4
        stray = {"trial": 7, "record": lines[0]["record"]}
        entries = [header, *lines[:3], stray]
        path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))

        assert cli_main(["report", str(path)]) == 1
        assert "partial run: 3/4 trials" in capsys.readouterr().out
        assert cli_main(["query", str(path), "--count"]) == 0
        assert capsys.readouterr().out.strip() == "3"
        database = tmp_path / "campaign.db"
        argv = ["store", "convert", str(path), "--to", "sqlite", "--out", str(database)]
        assert cli_main(argv) == 0
        assert "converted 3 record(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["report"], ["pareto"], ["query", "--count"]], ids=lambda a: a[0]
    )
    def test_point_file_of_another_spec_is_refused(self, tmp_path, capsys, argv):
        results = tmp_path / "sweep"
        _run(SWEEP, results)
        second = _jsonl_point_files(SWEEP, results)[1]
        header, *lines = second.read_text().splitlines()
        spec = json.loads(header)
        spec["spec"]["seed"] += 1
        second.write_text("\n".join([json.dumps(spec), *lines]) + "\n")

        with pytest.raises(SystemExit) as exc:
            cli_main([argv[0], str(results), *argv[1:]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{second} holds results for a different campaign spec" in captured.err


class TestKilledTopUp:
    """A stopped adaptive point reopened by a tighter run reads the same in both stores."""

    LOOSE = ExperimentSpec.from_dict({
        "campaign": "abft_error_coverage",
        "n_trials": 16,
        "seed": 7,
        "base_params": {"bit_error_rate": 1e-3, "rows": 32, "cols": 32},
        "grid": {"scheme": ["tensor", "element"]},
        "name": "top-up",
        "adaptive": {"target_ci": 0.45, "batch": 4},
    })
    TIGHT = ExperimentSpec.from_dict(
        dict(LOOSE.to_dict(), adaptive={"target_ci": 0.05, "batch": 4, "max_trials": 64})
    )

    @staticmethod
    def _kill_after(n_trials):
        seen = []

        def listener(event):
            if event.kind == "trial":
                seen.append(event)
                if len(seen) > n_trials:
                    raise Killed

        return listener

    def _killed_top_up(self, path, store):
        _run(self.LOOSE, path, store=store)
        with pytest.raises(Killed):
            _run(self.TIGHT, path, store=store, progress=self._kill_after(6))

    def test_both_stores_read_a_killed_top_up_as_partial(self, tmp_path, capsys):
        counts, reports = [], []
        for store, path in (("jsonl", tmp_path / "sweep"), ("sqlite", tmp_path / "sweep.db")):
            self._killed_top_up(path, store)
            view = open_store(path).load_view()
            assert not view.complete
            assert [p.spec.n_trials for p in view.points] == [64, 64]
            counts.append([p.n_done for p in view.points])
            assert cli_main(["query", str(path), "--count"]) == 0
            assert capsys.readouterr().out.strip() == str(sum(counts[-1]))
            assert cli_main(["report", str(path)]) == 1
            reports.append(capsys.readouterr().out)
        assert counts[0] == counts[1]
        assert sum(counts[0]) == 4 + 4 + 7
        assert reports[0] == reports[1]
        assert "partial run: 15/128 trials" in reports[0]

    @pytest.mark.parametrize("store", BACKENDS)
    def test_resumed_top_up_ends_as_an_uninterrupted_one(self, tmp_path, store):
        suffix = ".db" if store == "sqlite" else ""
        killed, clean = tmp_path / f"killed{suffix}", tmp_path / f"clean{suffix}"
        self._killed_top_up(killed, store)
        _run(self.TIGHT, killed, store=store)
        _run(self.LOOSE, clean, store=store)
        _run(self.TIGHT, clean, store=store)
        if store == "jsonl":
            names = sorted(p.name for p in clean.iterdir())
            assert sorted(p.name for p in killed.iterdir()) == names
            for name in names:
                assert (killed / name).read_bytes() == (clean / name).read_bytes(), name
        else:
            stores = [open_store(killed), open_store(clean)]
            assert stores[0].load_view() == stores[1].load_view()
            for index in range(2):
                exports = [s.export_canonical(index) for s in stores]
                assert exports[0] == exports[1]


# --------------------------------------------------------------------------- #
# Conversion
# --------------------------------------------------------------------------- #
class TestConvert:
    def test_round_trip_is_byte_identical(self, tmp_path):
        results = tmp_path / "sweep"
        _run(SWEEP, results)
        db_path, moved = convert_store(results, "sqlite", tmp_path / "conv.db")
        assert moved == 8
        back_dir, restored = convert_store(db_path, "jsonl", tmp_path / "back")
        assert restored == 8
        for path in _jsonl_point_files(SWEEP, results):
            assert (back_dir / path.name).read_bytes() == path.read_bytes()
        manifest_back = json.loads((back_dir / "experiment.json").read_text())
        manifest_src = json.loads((results / "experiment.json").read_text())
        assert manifest_back["grid"] == manifest_src["grid"]

    def test_partial_run_converts_and_resumes(self, tmp_path):
        """Converting a killed jsonl run to sqlite preserves resumability:
        the resumed sqlite run finishes with jsonl-parity bytes."""
        reference = tmp_path / "reference"
        _run(SWEEP, reference)
        partial = tmp_path / "partial"
        _killed_run(SWEEP, partial)
        db_path, moved = convert_store(partial, "sqlite", tmp_path / "partial.db")
        assert 4 <= moved < 8
        result = _run(SWEEP, db_path, store="sqlite")
        assert result.complete
        store = open_store(db_path)
        try:
            for index, path in enumerate(_jsonl_point_files(SWEEP, reference)):
                assert store.export_canonical(index) == path.read_bytes()
        finally:
            store.close()

    def test_same_backend_refused(self, tmp_path):
        results = tmp_path / "sweep"
        _run(SWEEP, results)
        with pytest.raises(ValueError, match="already uses"):
            convert_store(results, "jsonl")

    def test_default_paths(self):
        assert default_convert_path("out", "sqlite") == Path("out.db")
        assert default_convert_path("out.jsonl", "sqlite") == Path("out.db")
        assert default_convert_path("out.db", "jsonl") == Path("out")
