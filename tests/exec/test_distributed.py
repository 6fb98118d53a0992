"""Chaos suite for the ``distributed`` executor backend.

Spawns *real* worker subprocesses and injects infrastructure faults -- a
SIGKILLed worker mid-shard, a worker leaving after a task quota, an external
worker joining mid-run, a failing trial kernel -- then asserts the lease
protocol recovers and the JSONL checkpoints stay byte-identical to a serial
run of the same spec.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec.distributed import (
    DistributedExecutor,
    FixedScale,
    QueueDepthScale,
    build_scale_policy,
    format_address,
    import_worker_module,
    parse_address,
    run_worker,
)
from repro.exec.engine import run_experiment
from repro.exec.spec import ExperimentSpec

#: The chaos kernels, registered in-process for the serial reference runs and
#: handed to worker subprocesses via ``--import``.
KERNEL_PATH = Path(__file__).with_name("chaos_kernel.py")
import_worker_module(str(KERNEL_PATH))


def _sleep_sweep(n_trials: int, sleep: float, name: str) -> ExperimentSpec:
    return ExperimentSpec(
        campaign="chaos_sleep",
        n_trials=n_trials,
        seed=11,
        params={"sleep": sleep},
        grid={"shard": [0, 1]},
        name=name,
    )


def _assert_byte_identical(reference: Path, candidate: Path) -> None:
    ref_files = sorted(p.name for p in reference.glob("*.jsonl"))
    assert ref_files == sorted(p.name for p in candidate.glob("*.jsonl"))
    for name in ref_files:
        assert (candidate / name).read_bytes() == (reference / name).read_bytes()


def _ipv6_loopback_available() -> bool:
    """True when the host can actually bind an AF_INET6 loopback socket.

    ``socket.has_ipv6`` only says the interpreter was *built* with IPv6;
    containers and kernels with ``ipv6.disable=1`` still fail the bind.
    """
    if not socket.has_ipv6:
        return False
    try:
        probe = socket.socket(socket.AF_INET6)
        try:
            probe.bind(("::1", 0))
        finally:
            probe.close()
    except OSError:
        return False
    return True


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class TestHelpers:
    def test_parse_address(self):
        assert parse_address("10.0.0.2:7777") == ("10.0.0.2", 7777)
        assert parse_address(":8888") == ("127.0.0.1", 8888)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("no-port-here")
        with pytest.raises(ValueError, match="non-integer"):
            parse_address("host:http")

    def test_parse_address_strips_ipv6_brackets(self):
        """``[::1]:7777`` must connect to host ``::1``, not ``[::1]``."""
        assert parse_address("[::1]:7777") == ("::1", 7777)
        assert parse_address("[2001:db8::5]:80") == ("2001:db8::5", 80)

    def test_format_address_round_trips_through_parse(self):
        for host, port in [("10.0.0.2", 7777), ("::1", 8888), ("2001:db8::5", 80)]:
            assert parse_address(format_address(host, port)) == (host, port)
        assert format_address("::1", 7777) == "[::1]:7777"

    def test_parse_address_rejects_bare_ipv6_and_empty_brackets(self):
        with pytest.raises(ValueError, match=r"bracket it like \[::1\]:7777"):
            parse_address("::1:7777")
        with pytest.raises(ValueError, match="empty bracketed host"):
            parse_address("[]:7777")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("[::1]")  # bracketed host but no port

    def test_import_worker_module_by_path_is_idempotent(self):
        first = import_worker_module(str(KERNEL_PATH))
        again = import_worker_module(str(KERNEL_PATH))
        assert first is again  # second import must not re-register the kernels

    def test_import_worker_module_ignores_same_stem_sys_module(self, tmp_path):
        """A ``--import path/to/mod.py`` whose stem equals an already-imported
        module (an installed package, say) must execute the *file*, not
        silently return the unrelated module and skip kernel registration."""
        decoy = type(sys)("collide")  # what `import collide` would have cached
        module_file = tmp_path / "collide.py"
        module_file.write_text("SENTINEL = 'loaded-from-path'\n")
        sys.modules["collide"] = decoy
        try:
            module = import_worker_module(str(module_file))
            assert module is not decoy
            assert module.SENTINEL == "loaded-from-path"
            assert sys.modules["collide"] is decoy  # the decoy is untouched
        finally:
            sys.modules.pop("collide", None)

    def test_import_worker_module_distinguishes_same_stem_paths(self, tmp_path):
        """Two different files sharing a stem are two different modules."""
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        first_dir.mkdir()
        second_dir.mkdir()
        (first_dir / "kernels.py").write_text("WHICH = 'a'\n")
        (second_dir / "kernels.py").write_text("WHICH = 'b'\n")
        first = import_worker_module(str(first_dir / "kernels.py"))
        second = import_worker_module(str(second_dir / "kernels.py"))
        assert first is not second
        assert (first.WHICH, second.WHICH) == ("a", "b")

    def test_worker_connect_failure_raises(self):
        with pytest.raises(OSError):
            run_worker(("127.0.0.1", 1), authkey="x", connect_timeout=0.5)

    def test_invalid_lease_timeout_rejected(self):
        with pytest.raises(ValueError, match="lease_timeout"):
            DistributedExecutor(lease_timeout=0.0)

    def test_zero_worker_quota_rejected(self):
        with pytest.raises(ValueError, match="worker_max_tasks"):
            DistributedExecutor(worker_max_tasks=0)

    def test_invalid_elasticity_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_respawns"):
            DistributedExecutor(max_respawns=-1)
        with pytest.raises(ValueError, match="max_workers"):
            DistributedExecutor(max_workers=0)
        with pytest.raises(ValueError, match="unknown scale policy"):
            DistributedExecutor(scale="thermostat")


class TestScalePolicies:
    """The pluggable pool-sizing strategies, as pure deterministic functions."""

    @staticmethod
    def _size(policy, **overrides):
        observations = dict(
            queue_depth=0, pending=0, leased=0, pool_size=2, n_workers=2, max_workers=4
        )
        observations.update(overrides)
        return policy.desired_size(**observations)

    def test_build_scale_policy(self):
        assert isinstance(build_scale_policy("fixed"), FixedScale)
        assert isinstance(build_scale_policy("queue-depth"), QueueDepthScale)
        ready = QueueDepthScale()
        assert build_scale_policy(ready) is ready
        with pytest.raises(ValueError, match="unknown scale policy"):
            build_scale_policy("thermostat")

    def test_fixed_never_grows_or_shrinks(self):
        policy = FixedScale()
        assert self._size(policy, pool_size=2, pending=100) == 2
        assert self._size(policy, pool_size=2, pending=1) == 2
        assert self._size(policy, pool_size=0, pending=50) == 0

    def test_queue_depth_grows_with_backlog_and_drains_with_it(self):
        policy = QueueDepthScale()
        # Deep queue: one worker per batch, capped at max_workers.
        assert self._size(policy, pending=100, max_workers=4) == 4
        assert self._size(policy, pending=3, max_workers=4) == 3
        # Drained queue: surplus workers retire down to the backlog...
        assert self._size(policy, pending=1, pool_size=4) == 1
        # ...but never below one while work remains, and to zero when done.
        assert self._size(policy, pending=1, max_workers=4) == 1
        assert self._size(policy, pending=0, pool_size=4) == 0

    def test_spawned_worker_gets_authkey_by_environment_not_argv(self, tmp_path):
        """The shared secret must never appear on a world-readable command
        line; spawned workers read it from REPRO_AUTHKEY instead."""
        spec = _sleep_sweep(n_trials=2, sleep=0.0, name="dist-authkey")
        executor = DistributedExecutor(
            n_workers=1,
            lease_timeout=10.0,
            authkey="s3cret-key",
            worker_imports=[str(KERNEL_PATH)],
        )
        result = run_experiment(spec, executor=executor, results_path=tmp_path / "out")
        assert result.complete
        assert executor.workers, "no local worker was spawned"
        assert "s3cret-key" not in " ".join(executor.workers[0].args)


class TestLeaseProtocol:
    """Unit-level coordinator behaviour, driven without real workers."""

    def test_take_to_claim_gap_is_reconciled(self):
        """A batch taken off the queue by a worker that dies before claiming
        must be re-enqueued once the queue accounting shows the shortfall."""
        executor = DistributedExecutor(
            n_workers=1, lease_timeout=0.3, spawn_workers=False, poll_interval=0.05
        )
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        pending = {0: (0, 0, {}, (0,))}
        tasks.put(pending[0])
        tasks.get()  # a worker takes the batch, then dies before claiming

        def surviving_worker():
            message = tasks.get(timeout=10)  # the reconciled re-enqueue
            results.put(("claim", message[0], "w"))
            results.put(("done", message[0], "w", message[1], [(0, {"v": 1})]))

        thread = threading.Thread(target=surviving_worker, daemon=True)
        thread.start()
        assert list(executor._harvest(tasks, results, pending)) == [(0, 0, {"v": 1})]

    def test_stale_error_from_superseded_worker_ignored(self):
        """An error about a batch that already completed elsewhere (an expired
        lease the slow worker still worked on) must not abort the run."""
        executor = DistributedExecutor(spawn_workers=False)
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        pending = {0: (0, 0, {}, (0,))}
        results.put(("error", 7, "slow-worker", "stale boom"))  # 7 not pending
        results.put(("done", 0, "w", 0, [(0, {"v": 2})]))
        assert list(executor._harvest(tasks, results, pending)) == [(0, 0, {"v": 2})]

    def test_error_on_pending_batch_raises(self):
        executor = DistributedExecutor(spawn_workers=False)
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        pending = {0: (0, 0, {}, (0,))}
        results.put(("error", 0, "w", "real boom"))
        with pytest.raises(RuntimeError, match="real boom"):
            list(executor._harvest(tasks, results, pending))

    def test_expired_lease_of_live_local_worker_extended_not_requeued(self):
        """A long batch on a healthy spawned worker is slow, not lost: its
        lease extends and never burns the max_requeues budget."""

        class FakeAliveWorker:
            pid = 424242

            def poll(self):
                return None

        executor = DistributedExecutor(spawn_workers=False, lease_timeout=5.0)
        executor.workers = [FakeAliveWorker()]
        holder = f"{socket.gethostname()}:424242"
        tasks: queue.Queue = queue.Queue()
        pending = {0: (0, 0, {}, (0,))}
        expired = time.monotonic() - 1.0
        leases = {0: (expired, holder)}
        requeues: dict = {}
        executor._requeue_expired(tasks, pending, leases, requeues)
        assert tasks.qsize() == 0 and requeues == {}
        assert leases[0][0] > time.monotonic()  # extended

        # The same expired lease held by a *dead* worker is re-enqueued.
        executor.workers = []
        leases = {0: (expired, holder)}
        executor._requeue_expired(tasks, pending, leases, requeues)
        assert tasks.qsize() == 1 and requeues == {0: 1} and 0 not in leases

    def test_duplicate_done_dropped(self):
        executor = DistributedExecutor(spawn_workers=False)
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        pending = {0: (0, 0, {}, (0,))}
        results.put(("done", 0, "a", 0, [(0, {"v": 3})]))
        results.put(("done", 0, "b", 0, [(0, {"v": 3})]))  # re-leased copy
        assert list(executor._harvest(tasks, results, pending)) == [(0, 0, {"v": 3})]


class TestByteIdentity:
    def test_single_worker_matches_serial(self, tmp_path):
        spec = _sleep_sweep(n_trials=6, sleep=0.0, name="dist-one-worker")
        serial_dir = tmp_path / "serial"
        run_experiment(spec, results_path=serial_dir)
        dist_dir = tmp_path / "dist"
        executor = DistributedExecutor(
            n_workers=1, lease_timeout=10.0, worker_imports=[str(KERNEL_PATH)]
        )
        result = run_experiment(spec, executor=executor, results_path=dist_dir)
        assert result.complete
        assert result.executor == "distributed"
        _assert_byte_identical(serial_dir, dist_dir)

    @pytest.mark.skipif(
        not _ipv6_loopback_available(), reason="IPv6 loopback unavailable"
    )
    def test_ipv6_loopback_coordinator_matches_serial(self, tmp_path):
        """A coordinator bound to ``::1`` serves spawned workers over AF_INET6.

        The workers receive a bracketed ``--connect [::1]:PORT`` (the format
        ``parse_address`` demands back), so this exercises the whole IPv6
        path: listener family, bracketed round-trip, and the family-aware
        client the worker processes dial in with.
        """
        spec = _sleep_sweep(n_trials=4, sleep=0.0, name="dist-ipv6")
        serial_dir = tmp_path / "serial"
        run_experiment(spec, results_path=serial_dir)
        dist_dir = tmp_path / "dist"
        executor = DistributedExecutor(
            n_workers=2,
            host="::1",
            lease_timeout=10.0,
            worker_imports=[str(KERNEL_PATH)],
        )
        result = run_experiment(spec, executor=executor, results_path=dist_dir)
        assert result.complete
        assert executor.address is not None and executor.address[0] == "::1"
        _assert_byte_identical(serial_dir, dist_dir)


class TestCoordinatorShutdown:
    def test_finished_runs_leave_no_coordinator_thread_and_free_their_ports(self, tmp_path):
        """Three runs in one process: each joins its accept thread and stops listening."""
        for n in range(3):
            spec = _sleep_sweep(n_trials=2, sleep=0.0, name=f"dist-shutdown-{n}")
            executor = DistributedExecutor(
                n_workers=1, lease_timeout=10.0, worker_imports=[str(KERNEL_PATH)]
            )
            result = run_experiment(spec, executor=executor, results_path=tmp_path / f"{n}")
            assert result.complete
            live = [t for t in threading.enumerate() if t.name == "repro-coordinator"]
            assert live == [], f"run {n}"
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(executor.address, timeout=5).close()


class TestChaos:
    def test_sigkilled_worker_is_respawned_and_bytes_match_serial(self, tmp_path):
        """Kill one of two workers mid-shard: the respawn policy spawns a
        replacement, the lease protocol re-leases the lost batch, the run
        completes at full strength, and the bytes still match serial."""
        spec = _sleep_sweep(n_trials=20, sleep=0.02, name="dist-sigkill")
        serial_dir = tmp_path / "serial"
        run_experiment(spec, results_path=serial_dir)

        executor = DistributedExecutor(
            n_workers=2,
            lease_timeout=1.5,
            worker_imports=[str(KERNEL_PATH)],
        )
        killed = {}
        pool_events = []

        def kill_first_worker(event):
            if event.pool is not None:
                pool_events.append(event.pool)
            if event.kind == "trial" and event.trials_done >= 3 and not killed:
                victim = executor.workers[0]
                victim.send_signal(signal.SIGKILL)
                victim.wait()
                killed["pid"] = victim.pid

        dist_dir = tmp_path / "dist"
        result = run_experiment(
            spec, executor=executor, results_path=dist_dir, progress=kill_first_worker
        )
        assert killed, "the kill hook never fired (run finished too fast?)"
        assert result.complete
        # The victim was collected as a death and a replacement was spawned.
        assert executor.stats["died"] >= 1
        assert executor.stats["respawned"] >= 1
        assert killed["pid"] in {worker.pid for worker in executor.died}
        # The pool history rode on the progress events (observability).
        assert any(pool["respawned"] >= 1 for pool in pool_events)
        _assert_byte_identical(serial_dir, dist_dir)

    def test_crash_looping_kernel_exhausts_max_respawns_loudly(self, tmp_path):
        """A kernel that hard-kills every worker it lands on must burn the
        respawn budget and fail the run, not respawn workers forever."""
        spec = ExperimentSpec(
            campaign="chaos_exit", n_trials=2, seed=0, name="dist-crashloop"
        )
        executor = DistributedExecutor(
            n_workers=1,
            lease_timeout=0.5,
            max_respawns=2,
            worker_imports=[str(KERNEL_PATH)],
        )
        with pytest.raises(RuntimeError, match="max_respawns=2"):
            run_experiment(spec, executor=executor, results_path=tmp_path / "out.jsonl")
        # Initial worker + the two budgeted replacements all died; counting
        # the third (over-budget) respawn attempt is what raised.
        assert executor.stats["respawned"] == 3
        assert executor.stats["died"] == executor.stats["spawned"] == 3

    def test_queue_depth_policy_scales_up_then_retires_idle_workers(self, tmp_path):
        """Under the queue-depth policy a 1-worker run grows to max_workers
        while the queue is deep, retires surplus workers as it drains, and
        still produces byte-identical output."""
        spec = _sleep_sweep(n_trials=12, sleep=0.05, name="dist-autoscale")
        serial_dir = tmp_path / "serial"
        run_experiment(spec, results_path=serial_dir)

        executor = DistributedExecutor(
            n_workers=1,
            lease_timeout=10.0,
            scale="queue-depth",
            max_workers=3,
            worker_imports=[str(KERNEL_PATH)],
        )
        pool_events = []

        def record_pool(event):
            if event.pool is not None:
                pool_events.append(event.pool)

        dist_dir = tmp_path / "dist"
        result = run_experiment(
            spec, executor=executor, results_path=dist_dir, progress=record_pool
        )
        assert result.complete
        # Scaled up: 8 pending batches against max_workers=3 means the pool
        # grew from the single budgeted worker to all three.
        assert executor.stats["spawned"] >= 3
        # Scaled down: as pending fell below the pool size, idle workers
        # were retired through the control channel (clean exits).
        assert executor.stats["retired"] >= 1
        assert all(worker.returncode == 0 for worker in executor.retired)
        assert executor.stats["died"] == 0
        # The pool history is visible to listeners.
        assert max(pool["spawned"] for pool in pool_events) >= 3
        _assert_byte_identical(serial_dir, dist_dir)

    def test_worker_leaves_and_external_worker_joins_mid_run(self, tmp_path):
        """The spawned worker retires after 2 batches (clean mid-run leave);
        an externally-launched worker joins mid-run and finishes the sweep."""
        spec = _sleep_sweep(n_trials=12, sleep=0.02, name="dist-join")
        serial_dir = tmp_path / "serial"
        run_experiment(spec, results_path=serial_dir)

        executor = DistributedExecutor(
            n_workers=1,
            lease_timeout=10.0,
            worker_max_tasks=2,
            worker_imports=[str(KERNEL_PATH)],
        )
        external = {}

        def launch_external(event):
            if event.kind == "trial" and "proc" not in external:
                host, port = executor.address
                env = _worker_env()
                env["REPRO_AUTHKEY"] = executor.authkey
                external["proc"] = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--connect",
                        f"{host}:{port}",
                        "--import",
                        str(KERNEL_PATH),
                    ],
                    env=env,
                    stderr=subprocess.PIPE,
                    text=True,
                )

        dist_dir = tmp_path / "dist"
        result = run_experiment(
            spec, executor=executor, results_path=dist_dir, progress=launch_external
        )
        assert result.complete
        # At least one spawned worker retired cleanly at its 2-task quota
        # (and was replaced); current workers exit cleanly on shutdown.
        assert executor.retired and executor.retired[0].returncode == 0
        assert all(worker.wait(timeout=10) == 0 for worker in executor.workers)
        # The external worker joined, did real work, and exits on shutdown.
        proc = external["proc"]
        stderr = proc.communicate(timeout=15)[1]
        assert proc.returncode == 0
        match = re.search(r"completed (\d+) tasks", stderr)
        assert match is not None and int(match.group(1)) >= 1
        _assert_byte_identical(serial_dir, dist_dir)

    def test_worker_recycling_is_self_sufficient(self, tmp_path):
        """A 1-worker run with a 1-task quota must respawn its way through
        every batch rather than deadlocking after the first retirement."""
        spec = _sleep_sweep(n_trials=6, sleep=0.0, name="dist-recycle")
        serial_dir = tmp_path / "serial"
        run_experiment(spec, results_path=serial_dir)
        executor = DistributedExecutor(
            n_workers=1,
            lease_timeout=10.0,
            worker_max_tasks=1,
            worker_imports=[str(KERNEL_PATH)],
        )
        dist_dir = tmp_path / "dist"
        result = run_experiment(spec, executor=executor, results_path=dist_dir)
        assert result.complete
        assert executor.retired, "no worker was ever recycled"
        assert all(worker.returncode == 0 for worker in executor.retired)
        _assert_byte_identical(serial_dir, dist_dir)

    def test_kernel_failure_propagates_to_coordinator(self, tmp_path):
        spec = ExperimentSpec(
            campaign="chaos_error", n_trials=1, seed=0, name="dist-error"
        )
        executor = DistributedExecutor(
            n_workers=1, lease_timeout=10.0, worker_imports=[str(KERNEL_PATH)]
        )
        with pytest.raises(RuntimeError, match="deliberate chaos_error"):
            run_experiment(spec, executor=executor, results_path=tmp_path / "out.jsonl")

    def test_interrupted_coordinator_resumes_byte_identical(self, tmp_path):
        """Abort the coordinator after the first grid point completes, then
        restart into the same results directory: the resumed run finishes and
        its bytes equal an uninterrupted serial run's."""
        spec = _sleep_sweep(n_trials=8, sleep=0.0, name="dist-resume")
        serial_dir = tmp_path / "serial"
        run_experiment(spec, results_path=serial_dir)

        class Interrupted(Exception):
            pass

        def abort_after_first_point(event):
            if event.kind == "point":
                raise Interrupted

        dist_dir = tmp_path / "dist"
        with pytest.raises(Interrupted):
            run_experiment(
                spec,
                executor=DistributedExecutor(
                    n_workers=2, lease_timeout=10.0, worker_imports=[str(KERNEL_PATH)]
                ),
                results_path=dist_dir,
                progress=abort_after_first_point,
            )
        resumed = run_experiment(
            spec,
            executor=DistributedExecutor(
                n_workers=2, lease_timeout=10.0, worker_imports=[str(KERNEL_PATH)]
            ),
            results_path=dist_dir,
        )
        assert resumed.complete
        _assert_byte_identical(serial_dir, dist_dir)
