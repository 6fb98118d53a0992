"""Executor-level progress reporting: trial counts, throughput and ETA.

Every backend streams its finished trials through the engine, so progress is
tracked in exactly one place -- a :class:`ProgressTracker` owned by the
:class:`~repro.exec.engine.ExperimentRunner` -- and is therefore emitted
uniformly by *all* executors (serial, process, distributed and any
``@register_executor`` plug-in).  The tracker turns each finished trial into
an immutable :class:`ProgressEvent` (trials done / total, per-grid-point
state, throughput, ETA) and fans it out to registered listeners.

Listeners are plain callables ``listener(event) -> None``:

* :class:`ProgressPrinter` renders throttled plain-text heartbeat lines that
  are safe for CI logs (no carriage returns or terminal control sequences) --
  the ``python -m repro run ... --progress`` renderer.
* Tests use listeners as a fault-injection hook: an exception raised by a
  listener aborts the run mid-stream exactly like a kill would, which is how
  the resume-under-failure suites interrupt every backend deterministically.

The tracker's :meth:`ProgressTracker.snapshot` -- counts only, no wall-clock
timing -- is what the engine persists into the sweep's ``experiment.json``
manifest, so ``python -m repro report`` can show the completion state of a
partial run without re-executing anything (and the finished manifest stays
byte-identical across backends and interruption histories).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

#: A progress listener: called with every emitted event, in order.
ProgressListener = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One immutable observation of an experiment's completion state.

    Attributes
    ----------
    kind:
        ``"start"`` (tracking began), ``"trial"`` (one trial finished),
        ``"point"`` (a grid point completed), ``"finish"`` (the run ended).
    trials_done / trials_total:
        Finished trials (including any resumed from checkpoints) vs. the
        experiment total.  Monotonically non-decreasing across events.
    points_done / n_points:
        Completed grid points vs. the grid size.
    point_index / point_done / point_total:
        The grid point the event belongs to and its own completion state
        (``point_index`` is ``None`` for start/finish events).
    elapsed:
        Seconds since tracking started.
    throughput:
        Trials per second *of this run* (resumed trials excluded), or ``None``
        before the first fresh trial lands.
    eta:
        Estimated seconds to completion (``0.0`` once done, ``None`` while
        there is no throughput estimate yet).
    pool:
        Latest worker-pool lifecycle counts reported by the executor
        (``size`` live workers plus cumulative ``spawned`` / ``retired`` /
        ``died`` / ``respawned``), or ``None`` for backends without an
        observable pool.  Carried on every event once reported, so
        listeners see the pool history of an elastic distributed run.
    """

    kind: str
    trials_done: int
    trials_total: int
    points_done: int
    n_points: int
    point_index: int | None
    point_done: int
    point_total: int
    elapsed: float
    throughput: float | None
    eta: float | None
    pool: dict | None = None

    @property
    def fraction(self) -> float:
        """Completed fraction in ``[0, 1]`` (1.0 for an empty experiment)."""
        if self.trials_total <= 0:
            return 1.0
        return self.trials_done / self.trials_total

    @property
    def percent(self) -> float:
        """Completed percentage in ``[0, 100]``."""
        return 100.0 * self.fraction


class ProgressTracker:
    """Counts finished trials/points and fans out :class:`ProgressEvent`s.

    Parameters
    ----------
    point_totals:
        Trials per grid point, in expansion order.
    initial_done:
        Trials already finished per grid point (checkpoint resume state).
    listeners:
        Callables invoked with every event.  Exceptions propagate: a raising
        listener aborts the run like an interrupt (the engine's checkpoints
        still flush through its ``finally`` path).
    label:
        Display name of the experiment (available to renderers).
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        point_totals: Sequence[int],
        initial_done: Sequence[int] | None = None,
        listeners: Sequence[ProgressListener] = (),
        label: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.point_totals = [int(n) for n in point_totals]
        if any(n < 0 for n in self.point_totals):
            raise ValueError("point totals must be non-negative")
        done = list(initial_done) if initial_done is not None else [0] * len(self.point_totals)
        if len(done) != len(self.point_totals):
            raise ValueError(
                f"initial_done has {len(done)} entries for "
                f"{len(self.point_totals)} grid points"
            )
        for index, (d, total) in enumerate(zip(done, self.point_totals)):
            if not 0 <= d <= total:
                raise ValueError(
                    f"grid point {index} starts with {d} trials done "
                    f"of {total}"
                )
        self.point_done = [int(d) for d in done]
        self.label = label
        self._listeners = list(listeners)
        self._clock = clock
        self._initial_done = sum(self.point_done)
        self._point_complete = [
            d == total for d, total in zip(self.point_done, self.point_totals)
        ]
        self._started_at: float | None = None
        #: Latest executor-reported pool counts; rides on every event.
        self.pool: dict | None = None

    # ------------------------------------------------------------------ #
    # Derived state
    # ------------------------------------------------------------------ #
    @property
    def trials_total(self) -> int:
        return sum(self.point_totals)

    @property
    def trials_done(self) -> int:
        return sum(self.point_done)

    @property
    def n_points(self) -> int:
        return len(self.point_totals)

    @property
    def points_done(self) -> int:
        return sum(self._point_complete)

    @property
    def complete(self) -> bool:
        return self.trials_done == self.trials_total

    def snapshot(self) -> dict:
        """Completion counts only (no timing): the manifest-persisted form.

        Deterministic for a given completion state, so the manifest of a
        finished sweep is byte-identical across backends, worker counts and
        interruption histories.
        """
        return {
            "trials_done": self.trials_done,
            "trials_total": self.trials_total,
            "points_done": self.points_done,
            "n_points": self.n_points,
            "points": [
                {"done": done, "total": total}
                for done, total in zip(self.point_done, self.point_totals)
            ],
            "state": "complete" if self.complete else "partial",
        }

    # ------------------------------------------------------------------ #
    # Event sources (called by the engine)
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Begin timing and emit the ``start`` event."""
        self._started_at = self._clock()
        self._emit("start", None)

    def update_pool(self, pool: dict | None) -> None:
        """Record the executor's latest worker-pool counts (no event).

        The engine refreshes this from ``Executor.pool_snapshot`` as records
        stream in; the stored counts ride on every subsequently emitted
        event.  ``None`` clears them.  Pool counts are deliberately *not*
        part of :meth:`snapshot`: the persisted completion state must stay
        byte-identical across backends and worker histories.
        """
        self.pool = dict(pool) if pool is not None else None

    def extend_point(self, point_index: int, new_total: int) -> None:
        """Raise ``point_index``'s trial budget to ``new_total`` (adaptive top-up).

        The engine's adaptive scheduler calls this when a grid point's
        confidence interval is still too wide at a round boundary: the
        point's total grows by another batch, so ``trial_done`` keeps
        accepting trials past the initial budget.  Totals only grow -- a
        shrink would strand already-counted trials -- and a point that was
        complete at the old total becomes in-flight again.  No event is
        emitted; the next ``trial`` event carries the new totals.
        """
        if not 0 <= point_index < self.n_points:
            raise ValueError(f"point index {point_index} outside the {self.n_points}-point grid")
        if new_total < self.point_totals[point_index]:
            raise ValueError(
                f"cannot shrink grid point {point_index} from "
                f"{self.point_totals[point_index]} to {new_total} trials"
            )
        if new_total == self.point_totals[point_index]:
            return
        self.point_totals[point_index] = int(new_total)
        self._point_complete[point_index] = False

    def trial_done(self, point_index: int) -> None:
        """Record one finished trial of ``point_index``."""
        if not 0 <= point_index < self.n_points:
            raise ValueError(f"point index {point_index} outside the {self.n_points}-point grid")
        if self.point_done[point_index] >= self.point_totals[point_index]:
            raise ValueError(
                f"grid point {point_index} already has all "
                f"{self.point_totals[point_index]} trials"
            )
        self.point_done[point_index] += 1
        self._emit("trial", point_index)

    def point_completed(self, point_index: int) -> None:
        """Mark ``point_index`` complete and emit a ``point`` event (idempotent)."""
        if self._point_complete[point_index]:
            return
        if self.point_done[point_index] != self.point_totals[point_index]:
            raise ValueError(
                f"grid point {point_index} has "
                f"{self.point_done[point_index]}/{self.point_totals[point_index]} "
                "trials; cannot mark complete"
            )
        self._point_complete[point_index] = True
        self._emit("point", point_index)

    def finish(self) -> None:
        """Emit the terminal ``finish`` event."""
        self._emit("finish", None)

    # ------------------------------------------------------------------ #
    def _emit(self, kind: str, point_index: int | None) -> None:
        started = self._started_at if self._started_at is not None else self._clock()
        elapsed = max(0.0, self._clock() - started)
        fresh = self.trials_done - self._initial_done
        throughput = fresh / elapsed if fresh > 0 and elapsed > 0 else None
        remaining = self.trials_total - self.trials_done
        if remaining <= 0:
            eta: float | None = 0.0
        elif throughput:
            eta = remaining / throughput
        else:
            eta = None
        event = ProgressEvent(
            kind=kind,
            trials_done=self.trials_done,
            trials_total=self.trials_total,
            points_done=self.points_done,
            n_points=self.n_points,
            point_index=point_index,
            point_done=self.point_done[point_index] if point_index is not None else 0,
            point_total=self.point_totals[point_index] if point_index is not None else 0,
            elapsed=elapsed,
            throughput=throughput,
            eta=eta,
            pool=self.pool,
        )
        for listener in self._listeners:
            listener(event)


# --------------------------------------------------------------------------- #
# Renderers
# --------------------------------------------------------------------------- #
def format_duration(seconds: float) -> str:
    """Compact duration: ``8s``, ``1m40s``, ``2h03m``."""
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def format_progress_line(event: ProgressEvent) -> str:
    """One heartbeat line: counts, percent, points, pool, throughput, ETA."""
    parts = [
        f"progress: {event.trials_done}/{event.trials_total} trials "
        f"({event.percent:.1f}%)",
        f"points {event.points_done}/{event.n_points}",
    ]
    if event.pool is not None:
        pool = f"pool {event.pool.get('size', 0)}"
        lifecycle = [
            f"{key} {event.pool[key]}"
            for key in ("respawned", "retired", "died")
            if event.pool.get(key)
        ]
        if lifecycle:
            pool += " (" + ", ".join(lifecycle) + ")"
        parts.append(pool)
    if event.throughput is not None:
        parts.append(f"{event.throughput:.1f} trials/s")
    if event.kind == "finish":
        parts.append(f"done in {format_duration(event.elapsed)}")
    elif event.eta is not None:
        parts.append(f"ETA {format_duration(event.eta)}")
    return " | ".join(parts)


class ProgressPrinter:
    """Throttled plain-text heartbeat renderer (CI-log safe).

    ``trial`` events print at most once per ``interval`` seconds; state
    transitions (start, grid-point completion, finish) always print.  Lines go
    to ``stream`` (default stderr, keeping stdout parseable for the result
    tables) with no carriage returns or cursor control, so captured CI logs
    stay readable.
    """

    def __init__(
        self,
        stream=None,
        interval: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval < 0:
            raise ValueError("interval must be non-negative")
        self.stream = stream
        self.interval = interval
        self._clock = clock
        self._last_printed: float | None = None

    def __call__(self, event: ProgressEvent) -> None:
        now = self._clock()
        if event.kind == "trial":
            throttled = (
                self._last_printed is not None
                and now - self._last_printed < self.interval
            )
            if throttled and event.trials_done < event.trials_total:
                return
        self._last_printed = now
        stream = self.stream if self.stream is not None else sys.stderr
        print(format_progress_line(event), file=stream, flush=True)
