"""The ``distributed`` executor: a socket coordinator plus remote workers.

The backend ships :class:`~repro.exec.executors.TrialSlice` batches to
workers over a :mod:`multiprocessing.managers` transport and streams the
finished ``(point, trial, record)`` triples back through the engine's JSONL
checkpoint layer.  Because per-trial seeds derive from the spec root and
records are keyed by index, the finished checkpoints are *byte-identical* to
a ``serial`` run for any worker count, for workers joining or leaving
mid-run, and across kill/resume histories.

Topology
--------
The coordinator (the process running the experiment) serves three proxied
objects on one TCP address: a **task queue** of pending batches, a **result
queue** of worker messages, and a **control** flag workers poll to learn the
run is over.  Workers are plain processes started with::

    python -m repro worker --connect HOST:PORT [--authkey KEY]

on any machine that can reach the coordinator; they loop ``claim -> run ->
report`` until the control flag flips.  By default the executor also spawns
``n_workers`` local worker subprocesses, so ``--executor distributed
--workers 2`` is self-contained; external workers can *additionally* join
(and leave) at any point mid-run.

Fault tolerance
---------------
Work is leased, never given away: a worker announces a ``claim`` before
running a batch, and a claimed batch whose ``done`` message does not arrive
within ``lease_timeout`` seconds is re-enqueued for any live worker (a
SIGKILLed worker therefore loses nothing but time).  A lease held by a
locally-spawned worker whose process is verifiably still running is merely
slow and gets extended instead.  Batches are deterministic and idempotent,
so a lease that expires on a slow *external* worker is harmless -- the
first ``done`` wins and duplicates are dropped.  Each batch is re-leased at
most ``max_requeues`` times before the run fails loudly instead of spinning
forever.

Elasticity
----------
The spawned pool is *elastic*, not just fault-tolerant.  The coordinator's
harvest loop detects spawned workers whose process exited without a clean
quota-retirement and spawns replacements while pending work remains --
``max_respawns`` bounds the total replacement budget so a crash-looping
kernel fails loudly instead of burning CPU forever.  On top of that, a
pluggable :class:`ScalePolicy` (``"fixed"`` keeps the pool at the
``n_workers`` budget; ``"queue-depth"`` targets one worker per outstanding
batch) can grow the pool up to ``max_workers`` while the task queue stays
deep and retire idle workers through the control channel as it drains --
retirement reuses the clean-exit machinery of ``worker_max_tasks``
recycling, so a retired worker finishes its current batch, exits zero and
is not replaced.  Per-worker lifecycle counts (spawned / retired / died /
respawned, current pool size) are exposed via :meth:`Executor.pool_snapshot`
and ride on every :class:`~repro.exec.progress.ProgressEvent`, making a
run's pool history visible to ``--progress`` and testable.

The connection is authenticated with a shared secret: explicit ``authkey``
or, by default, a random per-run token handed to spawned workers through
the ``REPRO_AUTHKEY`` environment variable (never argv) -- so an exposed
coordinator port is not open to anyone who has read this source.
"""

from __future__ import annotations

import abc
import hashlib
import importlib
import importlib.util
import os
import queue
import secrets
import socket
import subprocess
import sys
import threading
import time
import traceback
from multiprocessing import connection as _mp_connection
from multiprocessing.managers import BaseManager, Server
from pathlib import Path
from typing import Iterator, Sequence

from repro.exec.executors import (
    Executor,
    TrialResult,
    TrialSlice,
    register_executor,
)
from repro.fault.runner import _run_trial_batch

#: Environment variable workers read the shared secret from when ``--authkey``
#: is not given; spawned workers receive the coordinator's key this way so the
#: secret never appears on a world-readable command line.
AUTHKEY_ENV = "REPRO_AUTHKEY"

#: Default seconds a claimed batch may stay silent before it is re-enqueued.
DEFAULT_LEASE_TIMEOUT = 30.0


class _Control:
    """Run state the workers poll through their manager proxy.

    Besides the run-over flag, the control object carries per-worker
    *retirement* requests: the coordinator's scale policy asks an idle
    spawned worker to leave by id, and the worker exits cleanly (code 0)
    the next time it polls between batches -- the same clean-exit path as
    ``worker_max_tasks`` recycling, so scale-down can never lose work.
    """

    def __init__(self) -> None:
        self._shutdown = False
        self._retire: set[str] = set()

    def shutdown(self) -> None:
        self._shutdown = True

    def should_stop(self) -> bool:
        return self._shutdown

    def retire(self, worker_id: str) -> None:
        self._retire.add(worker_id)

    def withdraw_retire(self, worker_id: str) -> None:
        self._retire.discard(worker_id)

    def should_retire(self, worker_id: str) -> bool:
        return worker_id in self._retire

    def should_exit(self, worker_id: str) -> bool:
        """Stop-or-retire in one proxy round-trip (the worker loop's poll)."""
        return self._shutdown or worker_id in self._retire


class WorkerManager(BaseManager):
    """Client-side manager connecting a worker to a coordinator."""


WorkerManager.register("get_tasks")
WorkerManager.register("get_results")
WorkerManager.register("get_control")


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT``, ``[IPV6]:PORT`` or bare ``:PORT`` (= 127.0.0.1).

    IPv6 hosts must be bracketed (``[::1]:7777``): the brackets are stripped
    off the returned host, and a bare multi-colon host is rejected with a
    hint because it is ambiguous with the port separator.
    """
    host, sep, port = text.rpartition(":")
    if not sep or text.endswith("]"):  # no separator, or a port-less [IPV6]
        raise ValueError(f"address {text!r} is not HOST:PORT")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            raise ValueError(f"address {text!r} has an empty bracketed host")
    elif ":" in host:
        raise ValueError(
            f"address {text!r} has a bare IPv6 host; bracket it like "
            f"[{host}]:{port}"
        )
    host = host or "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"address {text!r} has a non-integer port") from None


def format_address(host: str, port: int) -> str:
    """Render ``(host, port)`` as text :func:`parse_address` accepts back.

    The inverse bracketing rule: an IPv6 host (any host containing ``:``)
    comes out as ``[host]:port`` so announce lines and spawned-worker
    ``--connect`` arguments round-trip through :func:`parse_address`.
    """
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


# --------------------------------------------------------------------------- #
# IPv6 transport
# --------------------------------------------------------------------------- #
# ``multiprocessing`` hard-codes AF_INET for tuple addresses on both ends of
# a manager connection (``address_type`` maps every tuple to ``'AF_INET'``
# and ``_validate_family`` rejects ``'AF_INET6'`` outright), so a bracketed
# IPv6 coordinator host needs two small shims: a listener that binds an
# AF_INET6 socket, and a client that connects with the right family.  Both
# treat "host contains a colon" as the IPv6 marker -- exactly the rule
# ``parse_address`` uses to demand brackets.


class _Inet6Listener(_mp_connection.Listener):
    """A :class:`multiprocessing.connection.Listener` bound over AF_INET6.

    ``Listener.__init__`` funnels through ``_validate_family``, which only
    knows AF_INET/AF_UNIX/AF_PIPE, so this subclass skips it and sets up the
    two attributes (``_listener``, ``_authkey``) the base class' ``accept``/
    ``close``/``address`` actually use.
    """

    def __init__(self, address: tuple[str, int], backlog: int = 16) -> None:
        self._listener = _mp_connection.SocketListener(
            address, "AF_INET6", backlog
        )
        self._authkey = None


class _Inet6Server(Server):
    """A manager :class:`Server` whose listener binds an AF_INET6 socket.

    The stock ``Server.__init__`` creates an AF_INET listener as a side
    effect; it is constructed on a throwaway loopback address, closed, and
    replaced.  ``address`` is trimmed to ``(host, port)`` -- AF_INET6
    ``getsockname`` returns a 4-tuple whose flowinfo/scope-id the announce
    line and workers have no use for.
    """

    def __init__(self, registry, address, authkey, serializer) -> None:
        super().__init__(registry, ("127.0.0.1", 0), authkey, serializer)
        self.listener.close()
        self.listener = _Inet6Listener(address=address, backlog=16)
        self.address = tuple(self.listener.address[:2])


_STDLIB_SOCKET_CLIENT = _mp_connection.SocketClient


def _family_aware_socket_client(address):
    """``SocketClient`` that picks AF_INET6 for colon-bearing tuple hosts.

    Installed over ``multiprocessing.connection.SocketClient`` at import
    time so every path that dials a coordinator -- ``BaseManager.connect``,
    proxy reconnects, spawned ``repro worker`` processes (they import this
    module before connecting) -- inherits the family fix without forking the
    stdlib manager machinery.
    """
    if isinstance(address, tuple) and ":" in str(address[0]):
        s = socket.socket(socket.AF_INET6)
        try:
            s.setblocking(True)
            s.connect(address)
        except BaseException:
            s.close()
            raise
        return _mp_connection.Connection(s.detach())
    return _STDLIB_SOCKET_CLIENT(address)


if _mp_connection.SocketClient is not _family_aware_socket_client:
    _mp_connection.SocketClient = _family_aware_socket_client


#: Modules imported from explicit ``.py`` paths, keyed by *resolved path*.
#: The cache is deliberately not ``sys.modules`` keyed by the file's stem: an
#: already-imported module that merely shares the stem (say an installed
#: ``kernels`` package next to ``--import path/to/kernels.py``) must never be
#: returned in place of the file, which would silently skip the trial-kernel
#: registration side effects.
_PATH_MODULES: dict[Path, object] = {}


def import_worker_module(spec: str):
    """Import a kernel-registering module by dotted name or ``.py`` path.

    Workers run in fresh interpreters, so trial kernels registered outside
    the built-in modules must be re-registered there; ``python -m repro
    worker --import my_kernels`` (or ``--import path/to/kernels.py``) runs
    the registration side effects before the worker starts pulling batches.

    Path imports are cached by resolved path (importing the same file twice
    returns the same module without re-running its side effects) and are
    registered in ``sys.modules`` under a path-namespaced name, so they can
    neither collide with an installed package of the same stem nor with a
    different file that happens to share it.
    """
    path = Path(spec)
    if path.suffix == ".py":
        resolved = path.resolve()
        cached = _PATH_MODULES.get(resolved)
        if cached is not None:
            return cached
        digest = hashlib.sha1(str(resolved).encode()).hexdigest()[:12]
        name = f"_repro_worker_{path.stem}_{digest}"
        module_spec = importlib.util.spec_from_file_location(name, resolved)
        if module_spec is None or module_spec.loader is None:
            raise ImportError(f"cannot load worker module from {spec!r}")
        module = importlib.util.module_from_spec(module_spec)
        sys.modules[name] = module
        try:
            module_spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(name, None)
            raise
        _PATH_MODULES[resolved] = module
        return module
    return importlib.import_module(spec)


# --------------------------------------------------------------------------- #
# Scale policies
# --------------------------------------------------------------------------- #
class ScalePolicy(abc.ABC):
    """Strategy deciding how large the spawned worker pool should be.

    The coordinator consults the policy on every scheduling tick and grows
    or shrinks the pool toward the returned size: growth spawns fresh
    ``python -m repro worker`` subprocesses (never past ``max_workers`` or
    the number of outstanding batches), shrinkage retires *idle* workers
    through the control channel (they exit cleanly between batches).  All
    arguments are keyword-only observations of the current tick.
    """

    #: Registry name; set by :func:`register_scale_policy`.
    name: str = ""

    @abc.abstractmethod
    def desired_size(
        self,
        *,
        queue_depth: int,
        pending: int,
        leased: int,
        pool_size: int,
        n_workers: int,
        max_workers: int,
    ) -> int:
        """Target spawned-pool size given the current scheduling state.

        ``queue_depth`` counts unclaimed batches sitting in the task queue,
        ``pending`` counts all unfinished batches (queued + leased),
        ``leased`` counts batches currently claimed by some worker, and
        ``pool_size`` is the current spawned pool (including workers already
        asked to retire).  The coordinator clamps the result to
        ``[0, max_workers]`` and never spawns more workers than there are
        pending batches.
        """


_SCALE_POLICIES: dict[str, type[ScalePolicy]] = {}


def register_scale_policy(name: str):
    """Class decorator registering a :class:`ScalePolicy` under ``name``."""

    def decorator(cls: type[ScalePolicy]) -> type[ScalePolicy]:
        if name in _SCALE_POLICIES:
            raise ValueError(f"scale policy {name!r} is already registered")
        if not (isinstance(cls, type) and issubclass(cls, ScalePolicy)):
            raise TypeError(f"{cls!r} must subclass ScalePolicy")
        cls.name = name
        _SCALE_POLICIES[name] = cls
        return cls

    return decorator


def available_scale_policies() -> list[str]:
    """Sorted names of all registered scale policies."""
    return sorted(_SCALE_POLICIES)


def build_scale_policy(policy: str | ScalePolicy) -> ScalePolicy:
    """Coerce a registry name or ready instance into a :class:`ScalePolicy`."""
    if isinstance(policy, ScalePolicy):
        return policy
    try:
        return _SCALE_POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scale policy {policy!r}; registered: "
            f"{available_scale_policies()}"
        ) from None


@register_scale_policy("fixed")
class FixedScale(ScalePolicy):
    """Keep the pool at whatever size it already has (no autoscaling).

    The pool still changes through the respawn/recycle machinery -- dead and
    quota-retired workers are replaced one for one -- but the policy itself
    never grows or shrinks it, matching the pre-elastic behaviour.
    """

    def desired_size(self, *, pool_size: int, **_observations) -> int:
        return pool_size


@register_scale_policy("queue-depth")
class QueueDepthScale(ScalePolicy):
    """One worker per outstanding batch, clamped to ``[1, max_workers]``.

    While the task queue stays deep the pool grows to ``max_workers``; as
    the run drains below the pool size, surplus idle workers are retired --
    proportional control with the batch backlog as the signal.
    """

    def desired_size(
        self, *, pending: int, max_workers: int, **_observations
    ) -> int:
        if pending <= 0:
            return 0
        return max(1, min(max_workers, pending))


# --------------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------------- #
def _start_coordinator(host: str, port: int, authkey: str):
    """Serve task/result/control objects on ``(host, port)`` in a daemon thread.

    The server runs *in-process* (no extra server process), so the
    coordinator touches the real :class:`queue.Queue` objects directly while
    workers go through proxies -- and nothing has to be picklable at
    registration time.
    """
    tasks: queue.Queue = queue.Queue()
    results: queue.Queue = queue.Queue()
    control = _Control()

    class _Coordinator(BaseManager):
        pass

    _Coordinator.register("get_tasks", callable=lambda: tasks)
    _Coordinator.register("get_results", callable=lambda: results)
    _Coordinator.register("get_control", callable=lambda: control)
    manager = _Coordinator(address=(host, port), authkey=authkey.encode())
    if ":" in host:
        # get_server() hard-codes the AF_INET Server; bracketed IPv6 hosts
        # (parse_address strips the brackets) get the AF_INET6 variant.
        server = _Inet6Server(
            _Coordinator._registry, (host, port), authkey.encode(), "pickle"
        )
    else:
        server = manager.get_server()
    # Server.serve_forever would normally create this; serve_client loops on
    # it, and _stop_coordinator sets it to end those loops.
    server.stop_event = threading.Event()

    def _serve() -> None:
        # A hand-rolled accept loop instead of Server.serve_forever: the
        # stdlib loop is written for a dedicated server *process* -- its
        # finally block resets the global sys.stdout/sys.stderr and calls
        # sys.exit -- which must not happen inside the coordinator (it would
        # silently undo pytest/redirect_stdout captures at shutdown).
        while not server.stop_event.is_set():
            try:
                connection = server.listener.accept()
            except OSError:
                return  # listener closed: the run is over
            handler = threading.Thread(
                target=server.handle_request, args=(connection,), daemon=True
            )
            handler.start()

    server.accept_thread = threading.Thread(
        target=_serve, daemon=True, name="repro-coordinator"
    )
    server.accept_thread.start()
    return tasks, results, control, server


#: Seconds :func:`_stop_coordinator` waits for the accept thread to return.
_COORDINATOR_JOIN_TIMEOUT = 5.0


def _stop_coordinator(server) -> None:
    """Shut the in-thread manager server down and join its accept thread.

    On Linux, closing a listening socket does not wake a thread blocked in
    ``accept()``, so the socket is shut down first: ``accept()`` then fails,
    the accept loop returns, and the port stops listening.
    """
    server.stop_event.set()
    try:
        server.listener._listener._socket.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already shut down, or never connected
    try:
        server.listener.close()
    except OSError:
        pass
    server.accept_thread.join(_COORDINATOR_JOIN_TIMEOUT)


@register_executor("distributed")
class DistributedExecutor(Executor):
    """Lease-based batch dispatch to local and/or remote worker processes.

    Parameters
    ----------
    n_workers:
        Local worker subprocesses to spawn (when ``spawn_workers``); also the
        usual parallelism budget for batch sizing.
    host / port:
        Bind address of the coordinator.  Port ``0`` picks an ephemeral port
        (the bound address is exposed as :attr:`address` once serving, and
        printed when ``announce`` is set).  Bind a routable host to accept
        workers from other machines.
    authkey:
        Shared secret of the manager connection.  ``None`` (default)
        generates a random per-run token: spawned workers receive it
        automatically via the ``REPRO_AUTHKEY`` environment variable, and
        the announce line shows it for external workers.  Pass an explicit
        key to coordinate it out of band.
    spawn_workers:
        Spawn ``n_workers`` local ``python -m repro worker`` subprocesses
        (default).  Disable to rely entirely on externally-started workers.
    lease_timeout:
        Seconds a claimed batch may stay unreported before re-enqueueing.
    max_requeues:
        Re-lease budget per batch before the run fails loudly.
    worker_max_tasks:
        Recycle spawned workers after this many batches: the worker exits
        cleanly and the coordinator spawns a replacement while work remains
        (memory hygiene; also exercised by the chaos tests as a clean
        "worker leaves mid-run").
    max_respawns:
        Replacement budget for spawned workers that exited *without* a clean
        quota-retirement (SIGKILL, segfault, unexpected exit): each such
        death spawns a replacement while pending work remains, and the run
        fails loudly once the budget is spent -- a crash-looping kernel must
        not burn CPU forever.
    scale:
        :class:`ScalePolicy` name or instance governing the spawned pool
        size each scheduling tick: ``"fixed"`` (default, no autoscaling) or
        ``"queue-depth"`` (grow toward one worker per outstanding batch up
        to ``max_workers``, retire idle workers as the queue drains).
    max_workers:
        Ceiling of the spawned pool for autoscaling policies (default:
        ``n_workers``).
    worker_imports:
        Extra modules (dotted names or ``.py`` paths) spawned workers import
        before pulling work, for trial kernels registered outside repro.
    stall_timeout:
        Optional hard watchdog: fail if no batch completes for this many
        seconds while work is pending.
    announce:
        Print the bound coordinator address to stderr (the CLI enables this
        so external workers know where to connect).
    """

    def __init__(
        self,
        n_workers: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: str | None = None,
        spawn_workers: bool = True,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_requeues: int = 8,
        worker_max_tasks: int | None = None,
        max_respawns: int = 8,
        scale: str | ScalePolicy = "fixed",
        max_workers: int | None = None,
        worker_imports: Sequence[str] = (),
        stall_timeout: float | None = None,
        announce: bool = False,
        poll_interval: float = 0.1,
    ) -> None:
        super().__init__(n_workers=n_workers)
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_requeues < 1:
            raise ValueError("max_requeues must be >= 1")
        if worker_max_tasks is not None and worker_max_tasks < 1:
            # 0 would make every spawned worker exit before its first batch
            # and the recycler respawn replacements forever.
            raise ValueError("worker_max_tasks must be >= 1 (or None)")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None)")
        self.host = host
        self.port = port
        self._generated_authkey = authkey is None
        self.authkey = authkey if authkey is not None else secrets.token_hex(16)
        self.spawn_workers = spawn_workers
        self.lease_timeout = lease_timeout
        self.max_requeues = max_requeues
        self.worker_max_tasks = worker_max_tasks
        self.max_respawns = max_respawns
        self.scale_policy = build_scale_policy(scale)
        self.max_workers = max_workers if max_workers is not None else n_workers
        self.worker_imports = tuple(worker_imports)
        self.stall_timeout = stall_timeout
        self.announce = announce
        self.poll_interval = poll_interval
        #: Bound coordinator address, set once the server thread is serving.
        self.address: tuple[str, int] | None = None
        #: Spawned local worker subprocesses (``subprocess.Popen``).
        self.workers: list[subprocess.Popen] = []
        #: Workers that left cleanly (``worker_max_tasks`` quota or a scale
        #: policy retirement) and were collected by the coordinator.
        self.retired: list[subprocess.Popen] = []
        #: Workers that exited without a clean quota-retirement (SIGKILL,
        #: crash, unexpected exit) and were collected by the coordinator.
        self.died: list[subprocess.Popen] = []
        #: Lifecycle counters exposed through :meth:`pool_snapshot`.
        self.stats = {"spawned": 0, "retired": 0, "died": 0, "respawned": 0}
        #: Worker ids the scale policy has asked to retire (clean exits of
        #: these are scale-downs, not quota recycles: no replacement).
        self._retire_requested: set[str] = set()
        #: Cached :meth:`pool_snapshot` payload, refreshed on pool changes.
        self._pool_cache: dict | None = None

    # ------------------------------------------------------------------ #
    def execute(self, slices: Sequence[TrialSlice]) -> Iterator[TrialResult]:
        batches = self._batches(slices)
        if not batches:
            return
        tasks, results, control, server = _start_coordinator(
            self.host, self.port, self.authkey
        )
        self.address = server.address
        if self.announce:
            bound = format_address(self.address[0], self.address[1])
            print(
                f"distributed: coordinator listening on {bound}",
                file=sys.stderr,
            )
            if self._generated_authkey:
                # Operators need the per-run token to start external workers;
                # the coordinator's own stderr is the operator channel.
                print(
                    f"distributed: workers join with "
                    f"{AUTHKEY_ENV}={self.authkey} python -m repro worker "
                    f"--connect {bound}",
                    file=sys.stderr,
                )
        try:
            pending: dict[int, tuple] = {}
            for task_id, batch in enumerate(batches):
                message = (task_id, batch.point_index, batch.spec_dict, batch.indices)
                pending[task_id] = message
                tasks.put(message)
            if self.spawn_workers:
                self.workers = [
                    self._spawn_worker()
                    for _ in range(min(self.n_workers, len(batches)))
                ]
                self._refresh_pool_snapshot()
            yield from self._harvest(tasks, results, pending, control)
        finally:
            self._finalize_pool()
            control.shutdown()
            self._reap_workers()
            _stop_coordinator(server)

    # ------------------------------------------------------------------ #
    def _harvest(self, tasks, results, pending, control=None) -> Iterator[TrialResult]:
        """Drain worker messages until every batch has reported ``done``."""
        if control is None:
            control = _Control()  # unit-test path: no real workers to retire
        #: task_id -> (lease deadline, claiming worker id)
        leases: dict[int, tuple[float, str]] = {}
        requeues: dict[int, int] = {}
        last_progress = time.monotonic()
        last_reconcile = time.monotonic()
        reconcile_rounds = 0
        while pending:
            try:
                message = results.get(timeout=self.poll_interval)
            except queue.Empty:
                self._requeue_expired(tasks, pending, leases, requeues)
                last_reconcile, reconcile_rounds = self._reconcile_unleased(
                    tasks,
                    pending,
                    leases,
                    max(last_progress, last_reconcile),
                    reconcile_rounds,
                )
                self._manage_pool(tasks, pending, leases, control)
                self._check_stalled(pending, leases, last_progress)
                continue
            kind = message[0]
            if kind == "claim":
                _, task_id, worker_id = message
                if task_id in pending:
                    leases[task_id] = (
                        time.monotonic() + self.lease_timeout,
                        worker_id,
                    )
            elif kind == "error":
                _, task_id, worker_id, text = message
                if task_id not in pending:
                    continue  # stale: a re-leased copy already completed elsewhere
                raise RuntimeError(
                    f"worker {worker_id} failed on batch {task_id}:\n{text}"
                )
            elif kind == "done":
                _, task_id, _worker_id, point_index, records = message
                if task_id not in pending:
                    continue  # duplicate: an expired lease the slow worker still finished
                del pending[task_id]
                leases.pop(task_id, None)
                last_progress = time.monotonic()
                for index, record in records:
                    yield point_index, index, record
                if pending:
                    # Tick the pool on completions too, not only on idle
                    # polls: a busy run must still scale down as it drains.
                    self._manage_pool(tasks, pending, leases, control)
            else:
                raise RuntimeError(f"unknown worker message kind {kind!r}")

    def _live_local_worker_ids(self) -> set[str]:
        """Worker ids (``host:pid``) of spawned workers that are still alive."""
        host = socket.gethostname()
        return {
            f"{host}:{worker.pid}"
            for worker in self.workers
            if worker.poll() is None
        }

    def _requeue_expired(self, tasks, pending, leases, requeues) -> None:
        """Re-enqueue claimed batches whose lease ran out (dead/stuck worker).

        A lease held by a locally-spawned worker whose process is *still
        alive* is merely slow -- it is extended, not counted against the
        batch (a long batch must not read as a dying worker).  Leases held
        by dead or external workers expire normally; the ``max_requeues``
        backstop only accumulates across those.
        """
        now = time.monotonic()
        alive_local = self._live_local_worker_ids()
        for task_id, (deadline, holder) in list(leases.items()):
            if task_id not in pending:
                del leases[task_id]
                continue
            if now < deadline:
                continue
            if holder in alive_local:
                leases[task_id] = (now + self.lease_timeout, holder)
                continue
            requeues[task_id] = requeues.get(task_id, 0) + 1
            if requeues[task_id] > self.max_requeues:
                raise RuntimeError(
                    f"batch {task_id} exceeded {self.max_requeues} lease "
                    "requeues; giving up (workers keep dying or stalling)"
                )
            del leases[task_id]
            tasks.put(pending[task_id])

    def _reconcile_unleased(
        self, tasks, pending, leases, last_activity, rounds
    ) -> tuple[float, int]:
        """Recover batches lost in the take-to-claim gap of a dying worker.

        A worker killed *between* popping a batch off the task queue and
        announcing its claim leaves the batch pending with no lease to
        expire.  Detect the loss by accounting: every unleased pending batch
        should still be sitting in the task queue, so a shortfall after a
        quiet ``lease_timeout`` means some were taken and never claimed --
        re-enqueue them all (idempotent batches make duplicates harmless;
        the first ``done`` wins).
        """
        now = time.monotonic()
        if now - last_activity <= self.lease_timeout:
            return last_activity, rounds
        unleased = [task_id for task_id in pending if task_id not in leases]
        if unleased and tasks.qsize() < len(unleased):
            rounds += 1
            if rounds > self.max_requeues:
                raise RuntimeError(
                    f"batches vanished in the take-to-claim gap "
                    f"{self.max_requeues} times; giving up"
                )
            for task_id in unleased:
                tasks.put(pending[task_id])
        return now, rounds

    def _spawned_worker_id(self, worker: subprocess.Popen) -> str:
        return f"{socket.gethostname()}:{worker.pid}"

    def _manage_pool(self, tasks, pending, leases, control) -> None:
        """One elasticity tick: collect exits, respawn, apply the scale policy."""
        if not self.spawn_workers:
            return
        self._collect_exited(pending, control)
        self._apply_scale(tasks, pending, leases, control)
        self._refresh_pool_snapshot()

    def _collect_exited(self, pending, control) -> None:
        """Classify exited spawned workers and replace them while work remains.

        A zero exit of a retire-requested worker is a scale-down (collected,
        not replaced).  A zero exit under a ``worker_max_tasks`` quota is
        recycling: replaced so recycling cannot strand pending work.  Every
        other exit -- SIGKILL, crash, or an unexpected clean exit with no
        quota configured -- is a death: replaced too, but each replacement
        burns the ``max_respawns`` budget so a crash-looping kernel fails
        loudly instead of respawning forever.
        """
        for index in reversed(range(len(self.workers))):
            worker = self.workers[index]
            if worker.poll() is None:
                continue
            del self.workers[index]
            worker_id = self._spawned_worker_id(worker)
            requested = worker_id in self._retire_requested
            self._retire_requested.discard(worker_id)
            # Drop the collected id from the shared control set too, so a
            # recycled pid can never inherit a stale retirement request.
            control.withdraw_retire(worker_id)
            if worker.returncode == 0 and (
                requested or self.worker_max_tasks is not None
            ):
                self.retired.append(worker)
                self.stats["retired"] += 1
                if pending and not requested:
                    self.workers.append(self._spawn_worker())
                continue
            self.died.append(worker)
            self.stats["died"] += 1
            if not pending:
                continue
            self.stats["respawned"] += 1
            if self.stats["respawned"] > self.max_respawns:
                raise RuntimeError(
                    f"spawned workers died {self.stats['died']} times (last "
                    f"exit code {worker.returncode}); respawn budget "
                    f"max_respawns={self.max_respawns} exhausted -- the "
                    "kernel or environment is crash-looping"
                )
            self.workers.append(self._spawn_worker())

    def _apply_scale(self, tasks, pending, leases, control) -> None:
        """Grow or shrink the spawned pool toward the scale policy's target."""
        desired = self.scale_policy.desired_size(
            queue_depth=tasks.qsize(),
            pending=len(pending),
            leased=len(leases),
            pool_size=len(self.workers),
            n_workers=self.n_workers,
            max_workers=self.max_workers,
        )
        desired = max(0, min(int(desired), self.max_workers))
        retiring = sum(
            1
            for worker in self.workers
            if self._spawned_worker_id(worker) in self._retire_requested
        )
        if desired > len(self.workers):
            # Growth is capped by outstanding batches: an extra worker with
            # nothing left to claim would spawn only to idle and retire.
            target = min(desired, len(pending))
            while len(self.workers) < target:
                self.workers.append(self._spawn_worker())
        elif desired < len(self.workers) - retiring:
            holders = {holder for _, holder in leases.values()}
            excess = len(self.workers) - retiring - desired
            for worker in self.workers:
                if excess <= 0:
                    break
                worker_id = self._spawned_worker_id(worker)
                # Retire only idle workers; a lease holder finishes first.
                if worker_id in holders or worker_id in self._retire_requested:
                    continue
                control.retire(worker_id)
                self._retire_requested.add(worker_id)
                excess -= 1

    def _finalize_pool(self) -> None:
        """Final lifecycle accounting before shutdown.

        Collects workers that already exited (so a death or retirement in
        the last instants of the run still shows up in the stats) without
        touching still-live workers: their upcoming control-flag exits are
        normal shutdown, not retirement.
        """
        for index in reversed(range(len(self.workers))):
            worker = self.workers[index]
            worker_id = self._spawned_worker_id(worker)
            if worker.poll() is None:
                if worker_id not in self._retire_requested:
                    continue
                # A retire-requested worker is between batches and about to
                # leave (the control flag has not flipped yet, so its exit
                # is the retirement): wait so the scale-down is accounted.
                try:
                    worker.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    continue
            if worker.returncode == 0 and (
                worker_id in self._retire_requested
                or self.worker_max_tasks is not None
            ):
                del self.workers[index]
                self._retire_requested.discard(worker_id)
                self.retired.append(worker)
                self.stats["retired"] += 1
            elif worker.returncode != 0:
                del self.workers[index]
                self.died.append(worker)
                self.stats["died"] += 1
        self._refresh_pool_snapshot()

    def _refresh_pool_snapshot(self) -> None:
        """Recompute the cached pool counts (one ``poll`` per worker).

        Called on the pool-changing paths (elasticity ticks, initial spawn,
        finalisation) so :meth:`pool_snapshot` -- which the engine consults
        once per streamed record -- stays a dict copy, not a syscall per
        worker per trial.
        """
        self._pool_cache = {
            "size": sum(1 for w in self.workers if w.poll() is None),
            "spawned": self.stats["spawned"],
            "retired": self.stats["retired"],
            "died": self.stats["died"],
            "respawned": self.stats["respawned"],
        }

    def pool_snapshot(self) -> dict | None:
        """Lifecycle counts of the spawned pool (see ``Executor.pool_snapshot``).

        ``None`` when the executor spawns no workers (externally-staffed
        runs have no observable pool).
        """
        if not self.spawn_workers:
            return None
        if self._pool_cache is None:
            self._refresh_pool_snapshot()
        return dict(self._pool_cache)

    def _check_stalled(self, pending, leases, last_progress) -> None:
        """Fail fast when the stall watchdog fires.

        This used to also detect "every spawned worker exited with work
        pending", but the elastic pool made that state unreachable: the
        same tick's :meth:`_collect_exited` either respawns a dead worker
        or raises on an exhausted ``max_respawns`` budget before this
        check runs.
        """
        now = time.monotonic()
        if (
            self.stall_timeout is not None
            and now - last_progress > self.stall_timeout
        ):
            raise RuntimeError(
                f"no batch completed for {self.stall_timeout:.0f}s with "
                f"{len(pending)} pending; aborting (stall_timeout)"
            )

    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> subprocess.Popen:
        assert self.address is not None
        self.stats["spawned"] += 1
        host, port = self.address
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            format_address(host, port),
        ]
        if self.worker_max_tasks is not None:
            cmd += ["--max-tasks", str(self.worker_max_tasks)]
        for module in self.worker_imports:
            cmd += ["--import", str(module)]
        env = dict(os.environ)
        # The secret travels by environment, not argv: command lines are
        # world-readable in the process table on multi-user hosts.
        env[AUTHKEY_ENV] = self.authkey
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return subprocess.Popen(cmd, env=env)

    def _reap_workers(self) -> None:
        """Collect spawned workers: they exit on the control flag, else escalate."""
        for worker in self.workers:
            if worker.poll() is not None:
                continue
            try:
                worker.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                worker.terminate()
                try:
                    worker.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()


# --------------------------------------------------------------------------- #
# Worker entry point (`python -m repro worker`)
# --------------------------------------------------------------------------- #
def _connect(address: tuple[str, int], authkey: str, timeout: float) -> WorkerManager:
    """Connect to a coordinator, retrying briefly (it may still be binding)."""
    deadline = time.monotonic() + timeout
    while True:
        manager = WorkerManager(address=address, authkey=authkey.encode())
        try:
            manager.connect()
            return manager
        except (ConnectionError, OSError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.25)


def run_worker(
    address: tuple[str, int],
    authkey: str,
    max_tasks: int | None = None,
    imports: Sequence[str] = (),
    poll_interval: float = 0.2,
    connect_timeout: float = 10.0,
) -> int:
    """Join a distributed run: pull batches, run them, report the records.

    Loops ``claim -> run -> report`` until the coordinator flips its control
    flag, asks this worker to retire (an autoscaling scale-down: the same
    clean exit as a quota departure), the connection drops (coordinator
    gone: a clean exit -- every unreported lease is re-enqueued there), or
    ``max_tasks`` batches have been completed (a deliberate mid-run
    departure; the lease protocol hands any remaining work to the other
    workers).

    Returns the process exit code and prints a one-line completion summary.
    """
    for module in imports:
        import_worker_module(module)
    manager = _connect(address, authkey, connect_timeout)
    tasks = manager.get_tasks()
    results = manager.get_results()
    control = manager.get_control()
    worker_id = f"{socket.gethostname()}:{os.getpid()}"
    completed = 0
    try:
        while max_tasks is None or completed < max_tasks:
            if control.should_exit(worker_id):
                break
            try:
                task_id, point_index, spec_dict, indices = tasks.get(
                    timeout=poll_interval
                )
            except queue.Empty:
                continue
            results.put(("claim", task_id, worker_id))
            try:
                records = _run_trial_batch(spec_dict, list(indices))
            except Exception:
                results.put(("error", task_id, worker_id, traceback.format_exc()))
                return 1
            results.put(("done", task_id, worker_id, point_index, records))
            completed += 1
    except (ConnectionError, EOFError, BrokenPipeError):
        pass  # coordinator went away; nothing left to do here
    # Stderr, like all heartbeat output: a spawned worker shares the
    # coordinator's streams, and stdout must stay a clean result table.
    print(f"worker {worker_id}: completed {completed} tasks", file=sys.stderr)
    return 0
