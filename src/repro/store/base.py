"""The :class:`ResultsStore` strategy interface and its registry.

Persistence used to be hard-wired to one on-disk shape: the engine composed
JSONL file names, wrote ``experiment.json`` manifests inline and dropped
progress sidecars next to campaign files, and every reader re-parsed the raw
files.  This module makes storage a strategy layer the way executors,
schemes, scale policies and fault models already are: a
:class:`ResultsStore` owns the *full* persistence lifecycle of one
experiment --

* **write side** (driven by the engine): layout validation, manifest
  persistence and resume-identity checks (:meth:`ResultsStore.prepare`),
  per-grid-point :class:`PointStore` handles (open / durable append /
  canonical finalisation / resume enumeration), progress-snapshot
  persistence, and completion cleanup (:meth:`ResultsStore.finalize`);
* **read side** (driven by ``repro report|pareto|query``): a counts-only
  :meth:`ResultsStore.load_view`, full per-point record sets
  (:meth:`ResultsStore.point_records`), memory-bounded record streaming
  (:meth:`ResultsStore.iter_records`) and canonical-bytes export
  (:meth:`ResultsStore.export_canonical`) so any backend can be
  byte-compared against the JSONL reference layout.

Backends register with :func:`register_store`; the built-ins are ``"jsonl"``
(:mod:`repro.store.jsonl` -- the historical layout, byte-for-byte) and
``"sqlite"`` (:mod:`repro.store.sqlite` -- one queryable database per
experiment).  :func:`build_store` selects a backend by name for a run;
:func:`open_store` sniffs an existing results path (SQLite magic bytes vs
JSONL/directory) so the reporting verbs work transparently on either.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

# The interface layer deliberately imports nothing from ``repro.exec`` at
# module scope: the engine imports this module, and ``repro.exec.__init__``
# imports the engine, so an eager exec import here would be circular.
from repro.fault.runner import _canonical_json

if TYPE_CHECKING:
    from repro.exec.spec import ExperimentSpec

#: A per-trial record: a JSON-serialisable mapping produced by a trial kernel
#: (the same alias ``repro.exec.checkpoint`` defines; duplicated to keep this
#: module import-light).
TrialRecord = dict

#: Name of the default backend (the historical JSONL layout).
DEFAULT_STORE = "jsonl"

#: Name of the spec manifest an engine run drops into a sweep results
#: directory (lets ``python -m repro report <dir>`` rebuild the experiment).
#: Alongside the spec it carries a ``"progress"`` completion snapshot, kept
#: current as grid points finish so a partial run's state survives a kill.
MANIFEST_NAME = "experiment.json"


def progress_sidecar_path(results_path: str | Path) -> Path:
    """Progress-snapshot sidecar of a single-campaign results file.

    A campaign checkpoints into one JSONL file and has no sweep manifest to
    carry its completion snapshot, so the engine persists the counts-only
    snapshot into ``<results>.progress.json`` next to it.  The sidecar is
    removed when the run completes: its presence marks an interrupted (or
    in-flight) run, and ``python -m repro report`` reads it to show the
    completion state even before any trial record has landed.
    """
    results_path = Path(results_path)
    return results_path.with_name(results_path.name + ".progress.json")


def read_manifest(path: str | Path) -> tuple["ExperimentSpec", dict | None]:
    """Parse an ``experiment.json`` manifest into ``(spec, progress or None)``.

    The manifest is the experiment spec plus an optional ``"progress"``
    completion snapshot (see :meth:`ProgressTracker.snapshot`); manifests
    written before progress persistence existed parse fine (``None``).
    """
    from repro.exec.spec import ExperimentSpec

    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    progress = data.pop("progress", None)
    return ExperimentSpec.from_dict(data), progress


def experiment_resume_key(spec: "ExperimentSpec") -> str:
    """Resume-identity of an experiment: the fields that shape trial records.

    The cosmetic ``name``, the ``adaptive`` stopping policy and the
    ``store`` backend are excluded: records are count-invariant
    (prefix-stable seed streams), the policy only decides *how many* trials
    run, and the backend only decides *where* they land -- so re-running a
    results path with a different ``--target-ci`` (or after a
    ``repro store convert``) extends the same results rather than refusing.
    ``n_trials`` stays in the key deliberately -- it is the sweep *shape* as
    written, and per-point handles guard their own record counts via
    :meth:`PointStore.load`.
    """
    data = {
        k: v
        for k, v in spec.to_dict().items()
        if k not in ("name", "adaptive", "store")
    }
    return _canonical_json(data)


class PointStore(abc.ABC):
    """Persistence handle of one grid point: resume, append, finalise.

    The engine drives one handle per grid point through a fixed lifecycle:
    :meth:`load` (resume enumeration + identity guard), :meth:`open` on the
    first fresh record, :meth:`append` per finished trial (durable
    immediately -- a kill loses at most the in-flight trial), :meth:`close`,
    and :meth:`write_canonical` once the point completes.  The JSONL
    implementation is :class:`~repro.exec.checkpoint.TrialCheckpoint`
    (unchanged bytes); other backends implement the same contract.
    """

    @abc.abstractmethod
    def load(self) -> dict[int, TrialRecord]:
        """Committed records keyed by trial index (resume state).

        Must raise ``ValueError`` when the stored data belongs to a
        different campaign spec, or holds committed records past the spec's
        trial count (a shrunken spec must not silently destroy results).
        """

    @abc.abstractmethod
    def open(self, header: bool) -> Any:
        """Open the append sink (``header`` marks a fresh, record-less point)."""

    @abc.abstractmethod
    def append(self, index: int, record: TrialRecord, sink: Any = None) -> None:
        """Durably commit one finished trial."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the append sink (idempotent)."""

    @abc.abstractmethod
    def write_canonical(self, ordered: Sequence[TrialRecord]) -> None:
        """Finalise the completed point in canonical trial-sorted form.

        The persisted header/count must reflect ``len(ordered)`` so an
        adaptively stopped (or topped-up) point reads back as a complete,
        self-consistent campaign.
        """


@dataclass(frozen=True)
class PointView:
    """Counts-only read model of one stored grid point.

    ``spec`` carries the on-disk header count (an adaptive point's actual
    stopped/topped-up ``n_trials``), so ``complete`` agrees with what ran,
    not with the manifest's initial budget.
    """

    index: int
    point: dict
    spec: ExperimentSpec
    n_done: int

    @property
    def complete(self) -> bool:
        return self.n_done == self.spec.n_trials


@dataclass(frozen=True)
class StoreView:
    """Counts-only read model of a stored experiment (finished or in-flight)."""

    spec: ExperimentSpec
    points: list[PointView] = field(default_factory=list)
    progress: dict | None = None

    @property
    def complete(self) -> bool:
        return all(point.complete for point in self.points)


class ResultsStore(abc.ABC):
    """Strategy interface owning the persistence lifecycle of one experiment.

    Parameters
    ----------
    path:
        Backend-specific results location (a JSONL file or directory, a
        SQLite database file).
    spec:
        The experiment being written.  Read-only openers
        (:func:`open_store`) construct without a spec and use only the
        read-side methods.
    """

    #: Registry name; set by :func:`register_store`.
    name: str = ""

    def __init__(self, path: str | Path, spec: ExperimentSpec | None = None) -> None:
        self.path = Path(path)
        self.spec = spec

    # ------------------------------------------------------------------ #
    # Write lifecycle (engine side)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def validate_layout(self) -> None:
        """Reject a results path whose shape cannot hold this experiment.

        Called at runner construction, before any worker spawns.  May also
        clean up stale in-flight markers left by a *different* experiment
        when no committed records exist (see the JSONL sidecar rules).
        """

    @abc.abstractmethod
    def prepare(self) -> None:
        """Persist/validate the experiment identity before the run starts.

        Must refuse (``ValueError``) when the path already belongs to a
        different experiment (by :func:`experiment_resume_key`), so two
        sweeps never mix results in one location.
        """

    @abc.abstractmethod
    def point_store(self, index: int, spec: ExperimentSpec, run_spec: ExperimentSpec) -> PointStore:
        """The persistence handle of grid point ``index``.

        ``spec`` is the manifest expansion (names the storage location);
        ``run_spec`` is what actually runs -- its ``n_trials`` carries an
        adaptive cap and is what resume guards and headers are checked
        against.
        """

    @abc.abstractmethod
    def persist_progress(self, snapshot: dict) -> None:
        """Atomically refresh the persisted completion snapshot (counts only)."""

    @abc.abstractmethod
    def finalize(self) -> None:
        """Mark the run complete (drop in-flight markers such as sidecars)."""

    def close(self) -> None:
        """Release backend resources (idempotent; reopened on demand)."""

    # ------------------------------------------------------------------ #
    # Read side (report / pareto / query)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def load_view(self) -> StoreView:
        """Counts-only view of the stored experiment (cheap, no record load)."""

    @abc.abstractmethod
    def point_records(self, index: int) -> "Any":
        """Full :class:`~repro.exec.results.TrialRecordSet` of one point."""

    @abc.abstractmethod
    def iter_records(
        self, indices: Sequence[int] | None = None
    ) -> Iterator[tuple[int, int, TrialRecord]]:
        """Stream ``(point index, trial index, record)`` without materialising.

        ``indices`` restricts the stream to those grid points (all points
        when ``None``).  Order is by point then trial.  This is the
        ``repro query`` primitive: memory stays bounded at any record count.
        """

    @abc.abstractmethod
    def count_records(self, indices: Sequence[int] | None = None) -> int:
        """Committed record count (indexed/cached where the backend can)."""

    @abc.abstractmethod
    def export_canonical(self, index: int) -> bytes:
        """The point's records as canonical checkpoint-JSONL bytes.

        For a complete point this must be byte-identical to the file the
        ``jsonl`` backend would have written, which is what the
        cross-backend parity suites compare.
        """


class NullStore(ResultsStore):
    """The no-persistence store used when a run has no results path."""

    name = "null"

    def __init__(self, spec: ExperimentSpec | None = None) -> None:
        self.path = None  # type: ignore[assignment]
        self.spec = spec

    def validate_layout(self) -> None: ...

    def prepare(self) -> None: ...

    def point_store(self, index: int, spec: ExperimentSpec, run_spec: ExperimentSpec) -> PointStore:
        from repro.exec.checkpoint import TrialCheckpoint

        return TrialCheckpoint(run_spec, None)

    def persist_progress(self, snapshot: dict) -> None: ...

    def finalize(self) -> None: ...

    def load_view(self) -> StoreView:
        raise ValueError("a run without a results path persists nothing to read")

    def point_records(self, index: int):
        raise ValueError("a run without a results path persists nothing to read")

    def iter_records(self, indices: Sequence[int] | None = None):
        raise ValueError("a run without a results path persists nothing to read")

    def count_records(self, indices: Sequence[int] | None = None) -> int:
        raise ValueError("a run without a results path persists nothing to read")

    def export_canonical(self, index: int) -> bytes:
        raise ValueError("a run without a results path persists nothing to read")


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_STORES: dict[str, type[ResultsStore]] = {}


def register_store(name: str) -> Callable[[type[ResultsStore]], type[ResultsStore]]:
    """Class decorator registering a :class:`ResultsStore` under ``name``."""

    def decorator(cls: type[ResultsStore]) -> type[ResultsStore]:
        if name in _STORES:
            raise ValueError(f"results store {name!r} is already registered")
        if not (isinstance(cls, type) and issubclass(cls, ResultsStore)):
            raise TypeError(f"{cls!r} must subclass ResultsStore")
        cls.name = name
        _STORES[name] = cls
        return cls

    return decorator


def get_store(name: str) -> type[ResultsStore]:
    """Look up a registered store class by name."""
    try:
        return _STORES[name]
    except KeyError:
        raise ValueError(
            f"unknown results store {name!r}; registered: {available_stores()}"
        ) from None


def available_stores() -> list[str]:
    """Sorted names of all registered results-store backends."""
    return sorted(_STORES)


def build_store(
    store: str | ResultsStore | None,
    path: str | Path | None,
    spec: ExperimentSpec | None = None,
) -> ResultsStore:
    """Resolve the store of a run: explicit choice > spec field > default.

    With no results path there is nothing to persist, so every backend
    collapses to the :class:`NullStore` and the run stays purely in-memory.
    """
    if path is None:
        return NullStore(spec=spec)
    if isinstance(store, ResultsStore):
        return store
    name = store or (spec.store if spec is not None and spec.store else DEFAULT_STORE)
    return get_store(name)(path, spec=spec)


#: First bytes of every SQLite database file (the format magic).
SQLITE_MAGIC = b"SQLite format 3\x00"


def sniff_store(path: str | Path) -> str:
    """Backend name of an existing results path (by content, not suffix).

    A file opening with the SQLite magic bytes is ``"sqlite"``; anything
    else -- a JSONL file, a sweep results directory, or a bare
    progress sidecar -- is the ``"jsonl"`` layout.
    """
    path = Path(path)
    if path.is_file():
        try:
            with path.open("rb") as handle:
                if handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC:
                    return "sqlite"
        except OSError:
            pass
    return DEFAULT_STORE


def open_store(path: str | Path, spec: ExperimentSpec | None = None) -> ResultsStore:
    """Open an existing results path with the backend that wrote it."""
    return get_store(sniff_store(path))(path, spec=spec)
