"""The ``"jsonl"`` results store: the historical on-disk layout, byte-exact.

This backend *is* the format every executor backend has always written -- a
single checkpoint JSONL file for a campaign, a directory of
``NNN-<label>.jsonl`` files plus an ``experiment.json`` manifest for a sweep,
and a ``<results>.progress.json`` sidecar carrying an interrupted campaign's
completion snapshot.  The write path delegates to
:class:`~repro.exec.checkpoint.TrialCheckpoint` unchanged, so committed
checkpoints, goldens and the cross-backend byte-parity suites are untouched
by the store refactor: a ``--store jsonl`` run produces the same bytes the
engine produced before stores existed.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

from repro.exec.checkpoint import (
    TrialCheckpoint,
    TrialRecord,
    campaign_results_path,
    canonical_record_bytes,
    parse_results_text,
)
from repro.exec.results import TrialRecordSet
from repro.exec.spec import ExperimentSpec
from repro.fault.runner import _canonical_json, _resume_key
from repro.store.base import (
    MANIFEST_NAME,
    PointView,
    ResultsStore,
    StoreView,
    experiment_resume_key,
    progress_sidecar_path,
    read_manifest,
    register_store,
)


@register_store("jsonl")
class JsonlStore(ResultsStore):
    """The default store: per-point JSONL checkpoints, manifest, sidecar."""

    # ------------------------------------------------------------------ #
    # Write lifecycle
    # ------------------------------------------------------------------ #
    def validate_layout(self) -> None:
        if self.spec is None:
            return
        if self.spec.is_sweep and self.path.is_file():
            raise ValueError(
                f"results path {self.path} is a file, but a sweep "
                "checkpoints into a directory of per-point JSONL files"
            )
        if not self.spec.is_sweep and self.path.is_dir():
            raise ValueError(
                f"results path {self.path} is a directory, but a "
                "campaign checkpoints into a single JSONL file"
            )
        if not self.spec.is_sweep:
            self._drop_stale_sidecar()

    def _drop_stale_sidecar(self) -> None:
        """Unlink a sidecar left by a *different* experiment's aborted run.

        An abort deliberately leaves the sidecar (it is the interrupted-run
        marker ``repro report`` reads), but once a fresh run reuses the same
        results path for another spec the old snapshot would be reported as
        this run's progress.  The sidecar is dropped only when no results
        file exists: with records on disk the sidecar describes them, and a
        spec mismatch is :meth:`TrialCheckpoint.load`'s refusal to make.
        """
        sidecar = progress_sidecar_path(self.path)
        if self.path.exists() or not sidecar.exists():
            return
        try:
            stored = ExperimentSpec.from_dict(json.loads(sidecar.read_text())["spec"])
        except (ValueError, KeyError, TypeError):
            sidecar.unlink(missing_ok=True)  # torn snapshot: no run to describe
            return
        if experiment_resume_key(stored) != experiment_resume_key(self.spec):
            sidecar.unlink(missing_ok=True)

    def prepare(self) -> None:
        if self.spec is None or not self.spec.is_sweep:
            return
        manifest = self.path / MANIFEST_NAME
        if manifest.exists():
            existing, _ = read_manifest(manifest)
            if experiment_resume_key(existing) != experiment_resume_key(self.spec):
                raise ValueError(
                    f"{manifest} describes a different experiment; refusing "
                    "to mix results of two sweeps in one directory"
                )
            return
        self.path.mkdir(parents=True, exist_ok=True)
        manifest.write_text(self.spec.to_json() + "\n")

    def point_store(
        self, index: int, spec: ExperimentSpec, run_spec: ExperimentSpec
    ) -> TrialCheckpoint:
        return TrialCheckpoint(run_spec, self._point_path(self.spec, index, spec))

    def persist_progress(self, snapshot: dict) -> None:
        """Atomically refresh the persisted ``progress`` completion snapshot.

        The snapshot holds counts only (no wall-clock timing), so the
        persisted state of a finished run is byte-identical across backends
        and interruption histories.  Sweeps keep it inside the
        ``experiment.json`` manifest; a single campaign has no manifest, so
        its snapshot goes into a ``<results>.progress.json`` sidecar.
        """
        if self.spec is None:
            return
        if self.spec.is_sweep:
            target = self.path / MANIFEST_NAME
            payload = dict(self.spec.to_dict())
            payload["progress"] = snapshot
        else:
            target = progress_sidecar_path(self.path)
            payload = {"spec": self.spec.to_dict(), "progress": snapshot}
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(_canonical_json(payload) + "\n")
        os.replace(tmp, target)

    def finalize(self) -> None:
        # The run completed: the JSONL file is the whole truth now, so the
        # interrupted-run sidecar comes off (its presence is the marker
        # `repro report` uses for "this run never finished").
        if self.spec is not None and not self.spec.is_sweep:
            progress_sidecar_path(self.path).unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def _point_path(
        self, spec: ExperimentSpec | None, index: int, campaign_spec: ExperimentSpec
    ) -> Path:
        if spec is not None and spec.is_sweep:
            return campaign_results_path(self.path, index, campaign_spec)
        return self.path

    def _read_experiment(self) -> tuple[ExperimentSpec, dict | None]:
        """The stored experiment spec and latest progress snapshot."""
        if self.spec is not None:
            return self.spec, None
        if self.path.is_dir():
            manifest = self.path / MANIFEST_NAME
            if not manifest.exists():
                raise ValueError(
                    f"results directory {self.path} has no {MANIFEST_NAME} "
                    "manifest; run the sweep through `repro run --results` first"
                )
            return read_manifest(manifest)
        sidecar = progress_sidecar_path(self.path)
        progress = None
        if sidecar.exists():
            try:
                progress = json.loads(sidecar.read_text()).get("progress")
            except (ValueError, AttributeError):
                progress = None  # a torn sidecar must not break reads
        if self.path.exists():
            spec_dict, _ = parse_results_text(self.path.read_text())
            if spec_dict is not None:
                return ExperimentSpec.from_dict(spec_dict), progress
        if sidecar.exists():
            # No header on disk: the sidecar is all that describes the run.
            try:
                data = json.loads(sidecar.read_text())
                return ExperimentSpec.from_dict(data["spec"]), data.get("progress")
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"cannot parse progress sidecar {sidecar}: {exc}") from None
        if self.path.exists():
            raise ValueError(f"{self.path} has no spec header")
        raise ValueError(f"results path {self.path} does not exist")

    def _point_state(
        self, spec: ExperimentSpec, index: int, campaign_spec: ExperimentSpec
    ) -> tuple[ExperimentSpec, dict | None, dict[int, TrialRecord]]:
        """``(header-trusting spec, header dict or None, records)`` of a point.

        The file's own header decides the trial count: an adaptive run stops
        a point early (or tops it up past the sweep's ``n_trials``) and
        rewrites the header to the count actually on disk, while the
        manifest spec still carries the initial count.  Records outside
        ``[0, n_trials)`` of that count are not part of the point and are
        ignored.  Any other header field must match the expansion's: a file
        written for another spec raises ``ValueError`` naming the file.
        """
        path = self._point_path(spec, index, campaign_spec)
        if not path.exists():
            return campaign_spec, None, {}
        spec_dict, records = parse_results_text(path.read_text())
        point_spec = campaign_spec
        if spec_dict is not None:
            if _resume_key(spec_dict) != _resume_key(campaign_spec.to_dict()):
                raise ValueError(
                    f"{path} holds results for a different campaign spec "
                    f"than {campaign_spec.label!r}"
                )
            if isinstance(spec_dict.get("n_trials"), int):
                point_spec = replace(campaign_spec, n_trials=spec_dict["n_trials"])
        in_range = {i: r for i, r in records.items() if i < point_spec.n_trials}
        return point_spec, spec_dict, in_range

    def load_view(self) -> StoreView:
        spec, progress = self._read_experiment()
        points = []
        for index, (point, campaign_spec) in enumerate(spec.expanded()):
            point_spec, _, records = self._point_state(spec, index, campaign_spec)
            points.append(
                PointView(index=index, point=point, spec=point_spec, n_done=len(records))
            )
        return StoreView(spec=spec, points=points, progress=progress)

    def point_records(self, index: int) -> TrialRecordSet:
        spec, _ = self._read_experiment()
        _, campaign_spec = spec.expanded()[index]
        point_spec, _, records = self._point_state(spec, index, campaign_spec)
        return TrialRecordSet(spec=point_spec, records=records)

    def iter_records(
        self, indices: Sequence[int] | None = None
    ) -> Iterator[tuple[int, int, TrialRecord]]:
        spec, _ = self._read_experiment()
        expanded = spec.expanded()
        wanted = range(len(expanded)) if indices is None else indices
        # One point's records in memory at a time: bounded by the largest
        # point, not the experiment.
        for index in wanted:
            _, _, records = self._point_state(spec, index, expanded[index][1])
            for trial in sorted(records):
                yield index, trial, records[trial]

    def count_records(self, indices: Sequence[int] | None = None) -> int:
        return sum(1 for _ in self.iter_records(indices))

    def export_canonical(self, index: int) -> bytes:
        spec, _ = self._read_experiment()
        _, campaign_spec = spec.expanded()[index]
        point_spec, spec_dict, records = self._point_state(spec, index, campaign_spec)
        header = spec_dict if spec_dict is not None else point_spec.to_dict()
        return canonical_record_bytes(header, records)
