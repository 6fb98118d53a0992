"""Pluggable execution backends: serial and a shared process pool.

An :class:`Executor` turns pending trial work -- ``(grid point, campaign
spec, trial indices)`` slices -- into finished ``(point, trial, record)``
triples.  The engine owns specs, checkpoints and aggregation; executors own
*only* the scheduling, so every backend is bit-identical by construction:
per-trial seeds derive from the spec root (``SeedSequence.spawn``) and
results are keyed by index, making completion order irrelevant.

Built-in backends (select by name, e.g. ``--executor process``):

* ``serial`` -- in-process, trials in order.  Also the only backend that can
  run trial kernels registered locally in a non-importable scope (tests,
  notebooks), and it checkpoints after every single trial.
* ``process`` -- one ``multiprocessing`` pool *shared across every grid
  point* of the experiment, so a sweep parallelises at the sweep level
  instead of campaign-by-campaign.
* ``distributed`` -- lease-based batch dispatch to local and/or remote worker
  processes over a ``multiprocessing.managers`` socket transport (see
  :mod:`repro.exec.distributed`); workers join and leave mid-run, and a
  killed worker's batches are re-leased automatically.

New backends plug in with::

    @register_executor("my_backend")
    class MyExecutor(Executor):
        def execute(self, slices):
            ...
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.fault.runner import (
    _chunk,
    _iter_trial_records,
    _mp_context,
    _run_trial_batch,
)

#: A per-trial record: a JSON-serialisable mapping produced by a trial kernel.
TrialRecord = dict

#: One finished trial: (grid-point index, trial index, record).
TrialResult = tuple[int, int, TrialRecord]


@dataclass(frozen=True)
class TrialSlice:
    """Pending work of one grid point: its spec and the trial indices to run."""

    point_index: int
    spec_dict: dict
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


class Executor(abc.ABC):
    """Strategy interface every execution backend implements.

    Parameters
    ----------
    n_workers:
        Parallelism budget.  The serial backend ignores it; pool backends
        spawn at most this many workers (fewer if there is less work).
    """

    #: Registry name; set by :func:`register_executor`.
    name: str = ""

    def __init__(self, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers

    @abc.abstractmethod
    def execute(self, slices: Sequence[TrialSlice]) -> Iterator[TrialResult]:
        """Yield ``(point index, trial index, record)`` as trials finish.

        Completion order is backend-defined and carries no meaning; the
        engine keys every record by its indices.
        """

    def pool_snapshot(self) -> dict | None:
        """Current worker-pool lifecycle counts, or ``None`` if untracked.

        Backends that own an observable pool of worker processes (the
        ``distributed`` coordinator) return a dict of counts -- ``size``
        (live workers now) plus cumulative ``spawned`` / ``retired`` /
        ``died`` / ``respawned`` -- which the engine attaches to every
        :class:`~repro.exec.progress.ProgressEvent` so a run's pool history
        is visible to progress listeners.  The default is ``None``: serial
        and pool backends have no per-worker lifecycle to report.
        """
        return None

    def _batches(self, slices: Sequence[TrialSlice]) -> list[TrialSlice]:
        """Split each slice into small batches, preserving point order.

        Small batches bound how much work a kill can lose (each finished
        batch checkpoints before more work is handed out) and let one shared
        pool interleave grid points.
        """
        if self.n_workers < 1:
            # The constructor rejects this too, but a mutated instance must
            # fail loudly here rather than silently batching work for zero
            # workers (which would hang pool dispatch with unissued trials).
            raise ValueError(
                f"{type(self).__name__}.n_workers must be >= 1 to batch "
                f"work, got {self.n_workers}"
            )
        batches = []
        for piece in slices:
            n_chunks = max(self.n_workers * 4, -(-len(piece.indices) // 32))
            for indices in _chunk(list(piece.indices), n_chunks):
                batches.append(
                    TrialSlice(piece.point_index, piece.spec_dict, tuple(indices))
                )
        return batches


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_EXECUTORS: dict[str, type[Executor]] = {}


def register_executor(name: str) -> Callable[[type[Executor]], type[Executor]]:
    """Class decorator registering an :class:`Executor` under ``name``."""

    def decorator(cls: type[Executor]) -> type[Executor]:
        if name in _EXECUTORS:
            raise ValueError(f"executor {name!r} is already registered")
        if not (isinstance(cls, type) and issubclass(cls, Executor)):
            raise TypeError(f"{cls!r} must subclass Executor")
        cls.name = name
        _EXECUTORS[name] = cls
        return cls

    return decorator


def get_executor(name: str) -> type[Executor]:
    """Look up a registered executor class by name."""
    try:
        return _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; registered: {available_executors()}"
        ) from None


def available_executors() -> list[str]:
    """Sorted names of all registered execution backends."""
    return sorted(_EXECUTORS)


def build_executor(executor: str | Executor, n_workers: int = 1) -> Executor:
    """Coerce a name or ready instance into an executor."""
    if isinstance(executor, Executor):
        return executor
    return get_executor(executor)(n_workers=n_workers)


# --------------------------------------------------------------------------- #
# Built-in backends
# --------------------------------------------------------------------------- #
@register_executor("serial")
class SerialExecutor(Executor):
    """In-process execution, trials in deterministic order.

    The lazily-yielded records let the engine checkpoint after every single
    trial, so a killed serial run loses at most one trial -- and kernels
    registered only in this interpreter (tests, notebooks) stay usable.
    """

    def execute(self, slices: Sequence[TrialSlice]) -> Iterator[TrialResult]:
        for piece in slices:
            for index, record in _iter_trial_records(piece.spec_dict, piece.indices):
                yield piece.point_index, index, record


def _run_point_batch(batch: TrialSlice) -> tuple[int, list[tuple[int, TrialRecord]]]:
    """Pool worker: run one batch and tag the results with its grid point."""
    return batch.point_index, _run_trial_batch(batch.spec_dict, list(batch.indices))


@register_executor("process")
class ProcessExecutor(Executor):
    """One shared ``multiprocessing`` pool across *all* grid points.

    The seed runner pooled workers per campaign, so a 6-point sweep with 8
    workers ran 6 sequential pools.  Here every batch of every grid point
    feeds one pool: grid points execute concurrently and the sweep
    parallelises at the sweep level.
    """

    def execute(self, slices: Sequence[TrialSlice]) -> Iterator[TrialResult]:
        batches = self._batches(slices)
        if not batches:
            return
        ctx = _mp_context()
        with ctx.Pool(processes=min(self.n_workers, len(batches))) as pool:
            for point_index, results in pool.imap_unordered(
                _run_point_batch, batches, chunksize=1
            ):
                for index, record in results:
                    yield point_index, index, record
