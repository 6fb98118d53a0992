"""Filtered record streaming over any results store: the ``repro query`` core.

A :class:`QueryFilter` splits into two layers that map onto the store API:

* **point-level** filters (``campaign``, ``point``, ``scheme``,
  ``fault_model``) are decided against the counts-only
  :class:`~repro.store.base.StoreView`, shrinking the set of grid points
  *before* any record is read -- on the sqlite backend that turns into an
  indexed ``WHERE point IN (...)``;
* **record-level** filters (``detected``) stream through
  :meth:`~repro.store.base.ResultsStore.iter_records`, so memory stays
  bounded however many records match.

Counting takes the indexed :meth:`count_records` fast path whenever no
record-level filter is set.  Everything works identically on a finished run
and on a partially-complete (killed) one: only committed records are stored,
so they are exactly what streams back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.exec.checkpoint import TrialRecord
from repro.store.base import PointView, ResultsStore

#: ``fault_model`` campaigns default to single-event upsets when the param
#: is absent, so a ``--fault-model seu`` query matches them too.
DEFAULT_FAULT_MODEL = "seu"


@dataclass(frozen=True)
class QueryFilter:
    """Record predicate of one ``repro query`` invocation (None = any)."""

    campaign: str | None = None
    point: int | None = None
    scheme: str | None = None
    fault_model: str | None = None
    detected: bool | None = None

    @property
    def record_level(self) -> bool:
        """Whether any filter must inspect individual records."""
        return self.detected is not None

    # ------------------------------------------------------------------ #
    def match_point(self, view: PointView) -> bool:
        """Whether a grid point can contribute records at all."""
        if self.point is not None and view.index != self.point:
            return False
        spec = view.spec
        if self.campaign is not None and not (
            self.campaign == spec.campaign or self.campaign in spec.label
        ):
            return False
        if self.scheme is not None and spec.params.get("scheme") != self.scheme:
            return False
        if (
            self.fault_model is not None
            and spec.params.get("fault_model", DEFAULT_FAULT_MODEL) != self.fault_model
        ):
            return False
        return True

    def match_record(self, record: TrialRecord) -> bool:
        if self.detected is not None and bool(record.get("detected")) != self.detected:
            return False
        return True


def select_points(store: ResultsStore, flt: QueryFilter) -> list[int]:
    """Grid-point indices surviving the point-level filters."""
    return [p.index for p in store.load_view().points if flt.match_point(p)]


def query_records(
    store: ResultsStore, flt: QueryFilter, limit: int | None = None
) -> Iterator[tuple[int, int, TrialRecord]]:
    """Stream the first ``limit`` (all if None) matching ``(point, trial,
    record)`` triples, bounded memory."""
    matches = (
        (point, trial, record)
        for point, trial, record in store.iter_records(select_points(store, flt))
        if flt.match_record(record)
    )
    yield from islice(matches, limit)


def count_query(store: ResultsStore, flt: QueryFilter) -> int:
    """Matching record count; indexed (no record reads) when possible."""
    indices = select_points(store, flt)
    if not flt.record_level:
        return store.count_records(indices)
    return sum(
        1 for _, _, record in store.iter_records(indices) if flt.match_record(record)
    )
