"""Serve worker processes: a fork-only spawner and the job loop.

Jobs run in long-lived, single-threaded worker processes, one per
worker slot, so two workers use two cores.  :meth:`ServeDaemon.start`
forks one **spawner** after the boots, the offline profiles and the
warm-pool fill, and before the daemon starts any thread; the spawner
forks every worker, so nothing is ever forked from the threaded daemon.
Each worker inherits the booted snapshots, the warm clones and the
translation cache as they were at start-up, keeps its own
:class:`~repro.serve.pool.WarmPool` between jobs, and refills it after
each result.

Each daemon worker thread drives one worker process over an anonymous
socketpair with pickle framing (:class:`multiprocessing.connection.Connection`;
both ends are the daemon's own processes, the control socket stays
JSON)::

    daemon thread                          worker process
    {job, record, budget, meta}       ->
                                      <-   heartbeat / journal
    ("cancel", None) | ("budget", n)  ->   (polled by the progress check)
                                      <-   result | aborted    (+ pool stats)
                                      <-   pool                (after the refill)

A cancel or budget update can cross the job's result on the wire; the
worker drops such late updates before it reads the next job.  Each
worker counts its pool's hits, misses, refills and forks from zero, so
the daemon's start-up fill that every worker inherits counts once.

The spawner and every worker reset SIGTERM to its default, ignore SIGINT
and leave only through ``os._exit``: a child never unwinds into its
parent's stack or runs its exit handlers, and never outlives the
daemon -- the spawner kills and reaps its workers and exits as soon as
the daemon's end of its channel closes.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, Optional, Set

from repro.fleet.jobs import JobAborted, JobResult, execute_job, run_job_on_clone
from repro.fleet.spec import DEFAULT_SEED
from repro.serve.pool import WarmPool


def _exit_after(body: Callable[[], None]) -> None:
    """Run ``body`` in a forked child, then leave through ``os._exit``."""
    code = 1
    try:
        body()
        code = 0
    except BaseException:  # noqa: BLE001 - nothing unwinds out of a child
        traceback.print_exc()
    finally:
        os._exit(code)


def exit_cause(status: Optional[int]) -> str:
    """A reaped worker's wait status, in words."""
    if status is None:
        return "exited (status unknown)"
    if os.WIFSIGNALED(status):
        signum = os.WTERMSIG(status)
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        return f"was killed by {name}"
    return f"exited with status {os.WEXITSTATUS(status)}"


# -- spawner -------------------------------------------------------------------


def _stop(pid: int) -> int:
    """SIGKILL a worker (a no-op once it has exited) and reap it."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return os.waitpid(pid, 0)[1]


def _fork_worker(channel: socket.socket, fd: int, worker_main) -> int:
    pid = os.fork()
    if pid == 0:
        channel.close()
        _exit_after(lambda: worker_main(Connection(fd)))
    os.close(fd)
    return pid


def _spawner_main(channel: socket.socket, worker_main) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # nothing inherited from the daemon is ever collected here or in a
    # worker, so a dead file object cannot close an fd number reused below
    gc.freeze()
    fd = channel.fileno()
    os.closerange(3, fd)
    os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
    children: Set[int] = set()
    try:
        while True:
            data, fds, _, _ = socket.recv_fds(channel, 1024, 1)
            if not data:
                return  # the daemon closed its end, or died
            op, pid = pickle.loads(data)
            if op == "spawn":
                reply = _fork_worker(channel, fds[0], worker_main)
                children.add(reply)
            else:
                reply = _stop(pid) if pid in children else None
                children.discard(pid)
            channel.send(pickle.dumps(reply))
    finally:
        for pid in children:
            _stop(pid)


@dataclass
class WorkerProcess:
    """The daemon's end of one worker process."""

    slot: int
    pid: int
    conn: Connection
    #: the worker's latest ``WarmPool.stats()``
    pool: Dict[str, Any] = field(default_factory=dict)


class Spawner:
    """The daemon's handle on its spawner process (see module docs).

    Construct it before the daemon starts any thread.  Its methods are
    safe to call from any daemon thread; once the spawner is gone they
    report that (``spawn`` raises, ``stop`` returns ``None``).
    """

    def __init__(self, worker_main: Callable[[Connection], None]) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.pid = os.fork()
        if self.pid == 0:
            ours.close()
            _exit_after(lambda: _spawner_main(theirs, worker_main))
        theirs.close()
        self._sock = ours
        self._lock = threading.Lock()

    def _call(self, op: str, pid: int = 0, fds=()) -> Any:
        with self._lock:
            try:
                request = pickle.dumps((op, pid))
                if fds:
                    socket.send_fds(self._sock, [request], list(fds))
                else:
                    self._sock.send(request)
                reply = self._sock.recv(1024)
            except OSError:
                return None
        return pickle.loads(reply) if reply else None

    def spawn(self, slot: int) -> WorkerProcess:
        """Fork a worker process for ``slot``."""
        ours, theirs = socket.socketpair()
        try:
            pid = self._call("spawn", fds=[theirs.fileno()])
        finally:
            theirs.close()
        if pid is None:
            ours.close()
            raise OSError("the worker spawner has exited")
        return WorkerProcess(slot=slot, pid=pid, conn=Connection(ours.detach()))

    def stop(self, pid: int) -> Optional[int]:
        """SIGKILL and reap a worker; its wait status."""
        return self._call("stop", pid)

    def close(self) -> None:
        """The spawner kills and reaps its workers and exits; reap it."""
        with self._lock:
            self._sock.close()
        os.waitpid(self.pid, 0)


# -- worker --------------------------------------------------------------------


def serve_jobs(
    conn: Connection,
    pool: WarmPool,
    base_seed: int = DEFAULT_SEED,
    heartbeat_interval: float = 0.25,
    execute: Callable[..., JobResult] = execute_job,
) -> None:
    """A worker process's life: one job at a time until the daemon
    closes its end of ``conn`` (shutdown, scale-down) or dies."""
    pool.restart_counts()
    try:
        conn.send({"type": "pool", "pool": pool.stats()})
        while True:
            request = conn.recv()
            if not isinstance(request, dict):
                continue  # a finished job's late cancel or budget update
            run_worker_job(
                conn, pool, request,
                base_seed=base_seed,
                heartbeat_interval=heartbeat_interval,
                execute=execute,
            )
    except (EOFError, ConnectionError):
        return


def run_worker_job(
    conn: Connection,
    pool: WarmPool,
    request: Dict[str, Any],
    base_seed: int = DEFAULT_SEED,
    heartbeat_interval: float = 0.25,
    execute: Callable[..., JobResult] = execute_job,
) -> None:
    """One job in a worker: run it on a warm clone, report, refill.

    ``request`` carries the job, its profile record, its tenant's
    remaining cycle budget and the journal meta.  Cancel and budget
    updates arrive on ``conn`` while the job runs; the progress check
    polls for them without blocking and also enforces the job's
    wall-clock ``timeout``, counted from when the clone is in hand (a
    variant's first boot in this worker does not count against it).
    """
    job = request["job"]
    budget = request["budget"]
    cancelled = False
    consumed = 0
    started = 0.0

    def acquire():
        nonlocal started
        clone = pool.acquire(job.guest_config())
        started = time.monotonic()
        return clone

    def check(cycles: int) -> None:
        nonlocal budget, cancelled, consumed
        consumed = cycles
        while conn.poll():
            kind, value = conn.recv()
            if kind == "cancel":
                cancelled = True
            else:
                budget = value
        if cancelled:
            raise JobAborted("cancelled", cycles)
        if budget is not None and cycles > budget:
            raise JobAborted("tenant-budget", cycles)
        if time.monotonic() - started > job.timeout:
            raise JobAborted("timeout", cycles)

    def send(message: Dict[str, Any]) -> None:
        if message["type"] == "heartbeat":
            # what the daemon charges if this process dies mid-job
            message["consumed"] = consumed
        conn.send(message)

    try:
        result = run_job_on_clone(
            acquire,
            job,
            request["record"],
            base_seed=base_seed,
            send=send,
            heartbeat_interval=heartbeat_interval,
            check=check,
            journal_meta=request["meta"],
            execute=execute,
        )
        outcome = {"type": "result", "result": result}
    except JobAborted as abort:
        outcome = {
            "type": "aborted",
            "reason": abort.reason,
            "consumed": abort.consumed_cycles,
        }
    conn.send({**outcome, "pool": pool.stats()})
    pool.refill()
    conn.send({"type": "pool", "pool": pool.stats()})
