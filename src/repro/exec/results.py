"""Typed experiment results: trial-record sets and aggregated experiment results.

The seed glued campaign outputs together by duck typing -- ``format_*``
helpers probed for a ``summary()`` attribute and silently fell back when it
was missing.  This module makes the result surface explicit:

* :class:`SummaryProtocol` -- the one-method protocol every renderable
  aggregate implements (``summary() -> dict``).  Reporting checks it with
  ``isinstance`` and raises a clear error instead of rendering blanks.
* :class:`TrialRecordSet` -- the typed set of per-trial JSONL records of one
  campaign / grid point.  Round-trips through ``to_jsonl``/``from_jsonl`` in
  the exact checkpoint format, merges with other shards of the same campaign
  (``merge``), and aggregates through the campaign registry.
* :class:`PointResult` / :class:`ExperimentResult` -- one grid point's
  aggregate, and the whole experiment's, in expansion order.  An
  :class:`ExperimentResult` serialises every shard of every point to one
  JSONL stream and merges with partial results from other shards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

from repro.exec.checkpoint import TrialRecord, canonical_record_bytes, parse_results_text
from repro.exec.spec import ExperimentSpec
from repro.fault.runner import _canonical_json, _resume_key, get_campaign


@runtime_checkable
class SummaryProtocol(Protocol):
    """An aggregate that can render itself as a flat ``{stat: value}`` dict."""

    def summary(self) -> dict: ...


# --------------------------------------------------------------------------- #
# Trial-record sets
# --------------------------------------------------------------------------- #
@dataclass
class TrialRecordSet:
    """The per-trial records of one campaign, keyed by trial index.

    A set may be *partial* (a shard, or an interrupted run); partial sets of
    the same campaign merge losslessly.  Aggregation requires completeness.
    """

    spec: ExperimentSpec
    records: dict[int, TrialRecord] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple[int, TrialRecord]]:
        return iter(sorted(self.records.items()))

    def add(self, index: int, record: TrialRecord) -> None:
        """Record one finished trial."""
        if not 0 <= index < self.spec.n_trials:
            raise ValueError(
                f"trial index {index} outside [0, {self.spec.n_trials}) of "
                f"campaign {self.spec.label!r}"
            )
        self.records[index] = record

    @property
    def complete(self) -> bool:
        """Whether every trial of the spec has a record."""
        return len(self.records) == self.spec.n_trials

    def missing(self) -> list[int]:
        """Trial indices that still need to run."""
        return [i for i in range(self.spec.n_trials) if i not in self.records]

    def ordered(self) -> list[TrialRecord]:
        """All records in trial order (requires a complete set)."""
        if not self.complete:
            raise ValueError(
                f"campaign {self.spec.label!r} is incomplete: "
                f"{len(self.records)}/{self.spec.n_trials} trials "
                f"(missing {self.missing()[:8]}...)"
            )
        return [self.records[i] for i in range(self.spec.n_trials)]

    def prefix_complete(self, n: int) -> bool:
        """Whether every trial index in ``[0, n)`` has a record."""
        return all(i in self.records for i in range(n))

    # ------------------------------------------------------------------ #
    def aggregate(self) -> Any:
        """Fold the complete record set through the campaign's aggregator."""
        definition = get_campaign(self.spec.campaign)
        return definition.aggregate(self.ordered(), dict(self.spec.params))

    def aggregate_interim(self, n: int | None = None) -> Any:
        """Fold the first ``n`` trials through the campaign's aggregator.

        The mid-run view adaptive scheduling reads: the prefix ``[0, n)``
        must be fully recorded (committed records only -- a stopping decision
        must never depend on in-flight trials), but the set as a whole may be
        partial.  ``n=None`` uses the longest complete prefix.
        """
        if n is None:
            n = 0
            while n in self.records:
                n += 1
        else:
            if not 0 <= n <= self.spec.n_trials:
                raise ValueError(
                    f"interim prefix {n} outside [0, {self.spec.n_trials}] of "
                    f"campaign {self.spec.label!r}"
                )
            if not self.prefix_complete(n):
                missing = [i for i in range(n) if i not in self.records][:8]
                raise ValueError(
                    f"campaign {self.spec.label!r} has holes in its first "
                    f"{n} trials (missing {missing}...); interim aggregation "
                    "needs a complete prefix"
                )
        definition = get_campaign(self.spec.campaign)
        records = [self.records[i] for i in range(n)]
        return definition.aggregate(records, dict(self.spec.params))

    def summary(self) -> dict:
        """The aggregate's summary; a clear error if it has none."""
        result = self.aggregate()
        if not isinstance(result, SummaryProtocol):
            raise TypeError(
                f"aggregate of campaign {self.spec.campaign!r} "
                f"({type(result).__name__}) does not implement summary(); "
                "use the aggregate object directly"
            )
        return result.summary()

    # ------------------------------------------------------------------ #
    def to_jsonl(self) -> str:
        """Canonical JSONL text (the checkpoint format, trial-sorted)."""
        return canonical_record_bytes(self.spec.to_dict(), self.records).decode()

    @classmethod
    def from_jsonl(cls, text: str, spec: ExperimentSpec | None = None) -> "TrialRecordSet":
        """Parse checkpoint JSONL text (header optional when ``spec`` given)."""
        spec_dict, records = parse_results_text(text)
        if spec is None:
            if spec_dict is None:
                raise ValueError("results text has no spec header; pass spec=")
            spec = ExperimentSpec.from_dict(spec_dict)
        elif spec_dict is not None and _resume_key(spec_dict) != _resume_key(spec.to_dict()):
            raise ValueError(
                f"results text belongs to another spec than {spec.label!r}: "
                "the specs differ beyond name and n_trials"
            )
        in_range = {i: r for i, r in records.items() if i < spec.n_trials}
        return cls(spec=spec, records=in_range)

    def save(self, path: str | Path) -> None:
        """Write the canonical JSONL form to ``path``."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def load(cls, path: str | Path, spec: ExperimentSpec | None = None) -> "TrialRecordSet":
        """Read a checkpoint JSONL file back into a record set."""
        return cls.from_jsonl(Path(path).read_text(), spec=spec)

    # ------------------------------------------------------------------ #
    def merge(self, other: "TrialRecordSet") -> "TrialRecordSet":
        """Union with another shard of the same campaign.

        Overlapping indices must carry identical records -- two shards of a
        deterministic campaign can never disagree, so a conflict means the
        shards belong to different runs and the merge is refused.
        """
        mine = _resume_key(self.spec.to_dict())
        theirs = _resume_key(other.spec.to_dict())
        if mine != theirs:
            raise ValueError(
                f"cannot merge records of campaign {other.spec.label!r} into "
                f"{self.spec.label!r}: specs differ"
            )
        merged = dict(self.records)
        for index, record in other.records.items():
            if index in merged and merged[index] != record:
                raise ValueError(
                    f"shards disagree on trial {index} of campaign "
                    f"{self.spec.label!r}; refusing to merge"
                )
            merged[index] = record
        return TrialRecordSet(spec=self.spec, records=merged)


# --------------------------------------------------------------------------- #
# Experiment results
# --------------------------------------------------------------------------- #
@dataclass
class PointResult:
    """One completed grid point: coordinates, records and aggregate."""

    index: int
    point: dict
    spec: ExperimentSpec
    records: TrialRecordSet
    result: Any

    def summary(self) -> dict:
        """The aggregate's summary; a clear error if it has none."""
        if not isinstance(self.result, SummaryProtocol):
            raise TypeError(
                f"result of grid point {self.point!r} "
                f"({type(self.result).__name__}) does not implement summary()"
            )
        return self.result.summary()


@dataclass
class ExperimentResult:
    """All grid points of a completed (or partial) experiment, in order."""

    spec: ExperimentSpec
    points: list[PointResult] = field(default_factory=list)
    executor: str = "serial"

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def result(self) -> Any:
        """The single aggregate of a one-point (campaign) experiment."""
        if len(self.points) != 1:
            raise ValueError(
                f"experiment {self.spec.label!r} has {len(self.points)} grid "
                "points; index .points or .results_by_point() instead"
            )
        return self.points[0].result

    def results_by_point(self) -> dict[tuple, Any]:
        """Map grid-point coordinates (axis-sorted value tuple) to aggregates."""
        axes = self.spec.axes
        return {
            tuple(entry.point[a] for a in axes): entry.result for entry in self.points
        }

    def summary(self) -> dict:
        """Per-point summaries keyed by grid coordinates (or the single one)."""
        if not self.spec.is_sweep:
            return self.points[0].summary()
        axes = self.spec.axes
        return {
            tuple(p.point[a] for a in axes): p.summary() for p in self.points
        }

    # ------------------------------------------------------------------ #
    def to_jsonl(self) -> str:
        """One JSONL stream for the whole experiment (header + point records).

        Lines: ``{"experiment": <spec>, "executor": ...}`` then
        ``{"point": i, "trial": t, "record": ...}`` for every record of every
        grid point, in expansion order.  A partial result (a shard) emits
        whatever records it holds; shards round-trip and :meth:`merge`.
        """
        lines = [
            _canonical_json(
                {"experiment": self.spec.to_dict(), "executor": self.executor}
            )
        ]
        for entry in self.points:
            for trial, record in entry.records:
                lines.append(
                    _canonical_json(
                        {"point": entry.index, "trial": trial, "record": record}
                    )
                )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ExperimentResult":
        """Rebuild an experiment result (aggregating complete points)."""
        header: dict | None = None
        shard_records: dict[int, dict[int, TrialRecord]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn final line of an interrupted shard write
            if "experiment" in entry:
                header = entry
                continue
            point = entry.get("point")
            trial = entry.get("trial")
            if isinstance(point, int) and isinstance(trial, int) and "record" in entry:
                # Record-less trial lines (torn or hand-edited) are skipped
                # like unparseable ones, mirroring parse_results_text.
                shard_records.setdefault(point, {})[trial] = entry["record"]
        if header is None:
            raise ValueError("experiment results text has no experiment header")
        spec = ExperimentSpec.from_dict(header["experiment"])
        points = []
        for index, (point, campaign_spec) in enumerate(spec.expanded()):
            # Bound the indices like add() would: a stream edited to a smaller
            # n_trials (or mixed with shards of a larger run) must read as
            # incomplete/foreign, not crash the aggregation.
            in_range = {
                i: r
                for i, r in shard_records.get(index, {}).items()
                if 0 <= i < campaign_spec.n_trials
            }
            records = TrialRecordSet(spec=campaign_spec, records=in_range)
            result = records.aggregate() if records.complete else None
            points.append(
                PointResult(
                    index=index,
                    point=point,
                    spec=campaign_spec,
                    records=records,
                    result=result,
                )
            )
        return cls(
            spec=spec, points=points, executor=str(header.get("executor", "serial"))
        )

    def merge(self, other: "ExperimentResult") -> "ExperimentResult":
        """Union with another shard of the same experiment, re-aggregating."""
        if self.spec.to_json() != other.spec.to_json():
            raise ValueError(
                f"cannot merge results of experiment {other.spec.label!r} "
                f"into {self.spec.label!r}: specs differ"
            )
        points = []
        for mine, theirs in zip(self.points, other.points):
            records = mine.records.merge(theirs.records)
            points.append(
                PointResult(
                    index=mine.index,
                    point=mine.point,
                    spec=mine.spec,
                    records=records,
                    result=records.aggregate() if records.complete else None,
                )
            )
        return ExperimentResult(spec=self.spec, points=points, executor=self.executor)

    @property
    def complete(self) -> bool:
        """Whether every grid point has a full record set."""
        return all(entry.records.complete for entry in self.points)


@dataclass(frozen=True)
class RecordSummary:
    """A typed single-record aggregate: its fields *are* the summary.

    Used by deterministic one-trial kernels (the roofline cost models behind
    Figures 9/15 and Tables 1-2) whose whole result is the record itself.
    """

    record: dict

    def __getitem__(self, key: str) -> Any:
        return self.record[key]

    def summary(self) -> dict:
        return dict(self.record)


def single_record_aggregate(records: Sequence[TrialRecord], params: dict) -> RecordSummary:
    """Aggregator for deterministic single-trial kernels: the record verbatim."""
    if len(records) != 1:
        raise ValueError(
            f"single-record campaigns take n_trials=1, got {len(records)} records"
        )
    return RecordSummary(record=dict(records[0]))
