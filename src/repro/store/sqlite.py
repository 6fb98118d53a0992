"""The ``"sqlite"`` results store: one queryable database per experiment.

Same commit semantics as the JSONL layout -- every finished trial is durable
the moment :meth:`SqlitePointStore.append` returns, a killed run loses at
most the in-flight trial, and resume refuses shrunken specs -- but the
records land in an indexed stdlib :mod:`sqlite3` database instead of flat
files, so ``repro query`` filters and counts stay fast at millions of rows.

Layout (schema version 1)::

    meta    (key TEXT PRIMARY KEY, value TEXT)
            -- "schema_version", "experiment" (canonical spec JSON),
            -- "progress" (latest completion snapshot JSON)
    points  (point INTEGER PRIMARY KEY, spec TEXT, n_done INTEGER,
             complete INTEGER)
            -- one row per grid point; ``spec`` is the point's run header
            -- (the same dict a JSONL checkpoint carries on its first line)
            -- and ``n_done`` is maintained in the same transaction as each
            -- trial insert, so SUM(n_done) is a crash-consistent O(points)
            -- record count
    trials  (point INTEGER, trial INTEGER, record TEXT,
             PRIMARY KEY (point, trial)) WITHOUT ROWID

Durability: WAL journaling with ``synchronous=NORMAL`` (a WAL commit is
crash-safe against process kills; an OS/power loss can lose the tail *after*
the last checkpoint but never tears a transaction), autocommit connection
with one explicit ``BEGIN IMMEDIATE`` transaction per append.  A transaction
killed mid-commit simply rolls back when the database reopens -- the
torn-write analogue of the JSONL layout's skipped partial line.

Byte parity: :meth:`SqliteStore.export_canonical` re-emits any point as
canonical checkpoint-JSONL bytes (the stored run header plus trial-sorted
records), byte-identical to the file a ``--store jsonl`` run of the same
spec writes -- which is how the parity suites and the CI sqlite leg compare
backends, and what ``repro store convert`` replays.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Iterator, Sequence

from repro.exec.checkpoint import TrialRecord, canonical_record_bytes
from repro.exec.results import TrialRecordSet
from repro.exec.spec import ExperimentSpec
from repro.fault.runner import _canonical_json, _resume_key
from repro.store.base import (
    PointStore,
    PointView,
    ResultsStore,
    StoreView,
    experiment_resume_key,
    register_store,
)

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS points (
    point    INTEGER PRIMARY KEY,
    spec     TEXT NOT NULL,
    n_done   INTEGER NOT NULL DEFAULT 0,
    complete INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS trials (
    point  INTEGER NOT NULL,
    trial  INTEGER NOT NULL,
    record TEXT NOT NULL,
    PRIMARY KEY (point, trial)
) WITHOUT ROWID;
"""


class SqlitePointStore(PointStore):
    """One grid point's handle into the experiment database."""

    def __init__(self, store: "SqliteStore", index: int, run_spec: ExperimentSpec) -> None:
        self.store = store
        self.index = index
        self.spec = run_spec

    # ------------------------------------------------------------------ #
    def load(self) -> dict[int, TrialRecord]:
        """Committed records of this point (resume state).

        Mirrors :meth:`TrialCheckpoint.load`: refuses a stored point of a
        different campaign spec, and refuses committed records past the
        spec's trial count (a shrunken spec must not silently destroy
        results).  Uncommitted transactions never show up here -- sqlite
        rolled them back when the database reopened.
        """
        conn = self.store._connect()
        row = conn.execute(
            "SELECT spec FROM points WHERE point = ?", (self.index,)
        ).fetchone()
        if row is not None and _resume_key(json.loads(row[0])) != _resume_key(
            self.spec.to_dict()
        ):
            raise ValueError(
                f"{self.store.path} point {self.index} holds results for a "
                "different campaign spec; refusing to resume"
            )
        records = {
            trial: json.loads(record)
            for trial, record in conn.execute(
                "SELECT trial, record FROM trials WHERE point = ?", (self.index,)
            )
        }
        extra = sorted(i for i in records if i >= self.spec.n_trials)
        if extra:
            raise ValueError(
                f"{self.store.path} point {self.index} holds {len(records)} "
                f"committed trial records up to index {max(records)}, but the "
                f"spec asks for only {self.spec.n_trials} trials; refusing to "
                "resume (completing the run would finalize the point without "
                f"the {len(extra)} records past the spec count -- raise "
                "n_trials or point the run at a fresh results path)"
            )
        return records

    def open(self, header: bool):
        """Ensure the point row exists (the run header of a fresh point).

        A stored row whose ``n_trials`` is below the running spec's (a
        stopped adaptive point topped up, or a finished run extended) takes
        the running spec and loses its complete flag, as
        :meth:`TrialCheckpoint.open` rewrites the JSONL header: both read the
        point as partial until :meth:`write_canonical` finishes it.
        """
        spec_json = _canonical_json(self.spec.to_dict())
        conn = self.store._connect()
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(
            "INSERT OR IGNORE INTO points (point, spec) VALUES (?, ?)", (self.index, spec_json)
        )
        (stored,) = conn.execute(
            "SELECT spec FROM points WHERE point = ?", (self.index,)
        ).fetchone()
        count = json.loads(stored).get("n_trials")
        if isinstance(count, int) and count < self.spec.n_trials:
            conn.execute(
                "UPDATE points SET spec = ?, complete = 0 WHERE point = ?",
                (spec_json, self.index),
            )
        conn.execute("COMMIT")
        return conn

    def append(self, index: int, record: TrialRecord, sink=None) -> None:
        """Durably commit one finished trial.

        The trial insert and the point's ``n_done`` counter move in the same
        transaction (with an existence probe first, since a re-delivered
        record from a re-leased distributed batch must not inflate the
        count), so a kill between any two statements leaves the count and
        the records consistent.
        """
        conn = self.store._connect()
        conn.execute("BEGIN IMMEDIATE")
        try:
            fresh = not conn.execute(
                "SELECT EXISTS(SELECT 1 FROM trials WHERE point = ? AND trial = ?)",
                (self.index, index),
            ).fetchone()[0]
            conn.execute(
                "INSERT OR REPLACE INTO trials (point, trial, record) VALUES (?, ?, ?)",
                (self.index, index, _canonical_json(record)),
            )
            if fresh:
                conn.execute(
                    "UPDATE points SET n_done = n_done + 1 WHERE point = ?",
                    (self.index,),
                )
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise

    def close(self) -> None:
        """No per-point handle to release: the store owns the connection."""

    def write_canonical(self, ordered: Sequence[TrialRecord]) -> None:
        """Finalise the point: header count = actual count, complete flag set.

        The JSONL analogue rewrites the whole file; here only the point row
        changes (records are already trial-keyed), and the records are
        re-asserted in one transaction so the finalised state never mixes
        with a partial append.  Re-finalising an already-complete point is a
        no-op, mirroring the byte-compare skip in
        :meth:`TrialCheckpoint.write_canonical`.
        """
        header = self.spec.to_dict()
        header["n_trials"] = len(ordered)
        header_json = _canonical_json(header)
        conn = self.store._connect()
        row = conn.execute(
            "SELECT spec, n_done, complete FROM points WHERE point = ?",
            (self.index,),
        ).fetchone()
        if row is not None and row == (header_json, len(ordered), 1):
            return
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                "INSERT OR REPLACE INTO points (point, spec, n_done, complete) "
                "VALUES (?, ?, ?, 1)",
                (self.index, header_json, len(ordered)),
            )
            conn.execute(
                "DELETE FROM trials WHERE point = ? AND trial >= ?",
                (self.index, len(ordered)),
            )
            conn.executemany(
                "INSERT OR REPLACE INTO trials (point, trial, record) VALUES (?, ?, ?)",
                [
                    (self.index, i, _canonical_json(record))
                    for i, record in enumerate(ordered)
                ],
            )
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise


@register_store("sqlite")
class SqliteStore(ResultsStore):
    """One-database-per-experiment store on stdlib :mod:`sqlite3`."""

    def __init__(self, path: str | Path, spec: ExperimentSpec | None = None) -> None:
        super().__init__(path, spec=spec)
        self._conn: sqlite3.Connection | None = None

    # ------------------------------------------------------------------ #
    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Autocommit mode: transactions are explicit BEGIN/COMMIT pairs,
            # so nothing lingers uncommitted between appends and a kill can
            # only lose the statement batch it interrupted.
            conn = sqlite3.connect(self.path, isolation_level=None)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            version = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if version is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(version[0]) != SCHEMA_VERSION:
                conn.close()
                raise ValueError(
                    f"{self.path} uses results-store schema version "
                    f"{version[0]}, but this build reads version {SCHEMA_VERSION}"
                )
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------ #
    # Write lifecycle
    # ------------------------------------------------------------------ #
    def validate_layout(self) -> None:
        if self.path.is_dir():
            raise ValueError(
                f"results path {self.path} is a directory, but the sqlite "
                "store keeps one database file per experiment"
            )

    def prepare(self) -> None:
        if self.spec is None:
            return
        conn = self._connect()
        stored = conn.execute(
            "SELECT value FROM meta WHERE key = 'experiment'"
        ).fetchone()
        if stored is not None:
            existing = ExperimentSpec.from_dict(json.loads(stored[0]))
            if experiment_resume_key(existing) != experiment_resume_key(self.spec):
                raise ValueError(
                    f"{self.path} describes a different experiment; refusing "
                    "to mix results of two experiments in one database"
                )
            return
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('experiment', ?)",
            (self.spec.to_json(),),
        )

    def point_store(
        self, index: int, spec: ExperimentSpec, run_spec: ExperimentSpec
    ) -> SqlitePointStore:
        return SqlitePointStore(self, index, run_spec)

    def persist_progress(self, snapshot: dict) -> None:
        self._connect().execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('progress', ?)",
            (_canonical_json(snapshot),),
        )

    def finalize(self) -> None:
        """Nothing to drop: progress lives inside the database it describes,
        keyed to this experiment, so it can never leak onto another spec."""

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def _read_experiment(self) -> tuple[ExperimentSpec, dict | None]:
        if not self.path.exists():
            raise ValueError(f"results path {self.path} does not exist")
        conn = self._connect()
        stored = conn.execute(
            "SELECT value FROM meta WHERE key = 'experiment'"
        ).fetchone()
        if stored is None:
            raise ValueError(f"{self.path} holds no experiment manifest")
        progress_row = conn.execute(
            "SELECT value FROM meta WHERE key = 'progress'"
        ).fetchone()
        progress = json.loads(progress_row[0]) if progress_row is not None else None
        return ExperimentSpec.from_dict(json.loads(stored[0])), progress

    def _point_rows(self) -> dict[int, tuple[dict, int]]:
        """``{point index: (stored run header, n_done)}`` for existing rows."""
        conn = self._connect()
        return {
            point: (json.loads(spec), n_done)
            for point, spec, n_done in conn.execute(
                "SELECT point, spec, n_done FROM points"
            )
        }

    def load_view(self) -> StoreView:
        spec, progress = self._read_experiment()
        rows = self._point_rows()
        points = []
        for index, (point, campaign_spec) in enumerate(spec.expanded()):
            point_spec, n_done = campaign_spec, 0
            if index in rows:
                header, n_done = rows[index]
                point_spec = ExperimentSpec.from_dict(header)
            points.append(
                PointView(index=index, point=point, spec=point_spec, n_done=n_done)
            )
        return StoreView(spec=spec, points=points, progress=progress)

    def point_records(self, index: int) -> TrialRecordSet:
        spec, _ = self._read_experiment()
        _, campaign_spec = spec.expanded()[index]
        rows = self._point_rows()
        point_spec = (
            ExperimentSpec.from_dict(rows[index][0]) if index in rows else campaign_spec
        )
        records = {
            trial: json.loads(record)
            for trial, record in self._connect().execute(
                "SELECT trial, record FROM trials WHERE point = ?", (index,)
            )
        }
        return TrialRecordSet(spec=point_spec, records=records)

    def iter_records(
        self, indices: Sequence[int] | None = None
    ) -> Iterator[tuple[int, int, TrialRecord]]:
        if not self.path.exists():
            raise ValueError(f"results path {self.path} does not exist")
        conn = self._connect()
        if indices is None:
            cursor = conn.execute(
                "SELECT point, trial, record FROM trials ORDER BY point, trial"
            )
        else:
            wanted = list(indices)
            marks = ",".join("?" * len(wanted))
            cursor = conn.execute(
                f"SELECT point, trial, record FROM trials WHERE point IN ({marks}) "
                "ORDER BY point, trial",
                wanted,
            )
        for point, trial, record in cursor:
            yield point, trial, json.loads(record)

    def count_records(self, indices: Sequence[int] | None = None) -> int:
        """Committed record count from the per-point counters: O(points),
        not O(records), and crash-consistent because each counter moves in
        the same transaction as its trial insert."""
        conn = self._connect()
        if indices is None:
            row = conn.execute("SELECT COALESCE(SUM(n_done), 0) FROM points").fetchone()
        else:
            wanted = list(indices)
            marks = ",".join("?" * len(wanted))
            row = conn.execute(
                f"SELECT COALESCE(SUM(n_done), 0) FROM points WHERE point IN ({marks})",
                wanted,
            ).fetchone()
        return int(row[0])

    def export_canonical(self, index: int) -> bytes:
        spec, _ = self._read_experiment()
        _, campaign_spec = spec.expanded()[index]
        rows = self._point_rows()
        header = rows[index][0] if index in rows else campaign_spec.to_dict()
        records = {
            trial: json.loads(record)
            for trial, record in self._connect().execute(
                "SELECT trial, record FROM trials WHERE point = ?", (index,)
            )
        }
        return canonical_record_bytes(header, records)
