"""The serve daemon: a long-lived, multi-tenant fleet control plane.

``repro serve`` turns the batch fleet into a service.  One daemon
process owns:

* a :class:`~repro.serve.queue.JobQueue` -- priority scheduling with
  admission control and per-tenant virtual-cycle budgets;
* the per-guest-variant machine snapshots, booted once, and a
  :class:`~repro.serve.pool.WarmPool` of pre-forked clones that every
  worker process inherits (:mod:`repro.serve.worker`);
* an **autoscaling worker pool** -- one daemon thread per worker slot,
  grown and shrunk between configured bounds by queue pressure; each
  thread drives one long-lived, single-threaded worker process, so two
  workers run two jobs at once;
* a **JSON-lines control socket** (``repro ctl``) -- submit, status,
  result, cancel, stats, watch (streamed heartbeats + journal
  segments), shutdown-with-drain.

A ``repro fleet`` batch is one in-process session of this daemon
(:func:`repro.fleet.runner.run_fleet`), and jobs run on forks pinned by
config digest, with seeds derived from the same ``identity()#index``
naming convention as a fleet spec's -- so a daemon-submitted job's
virtual-cycle score is bit-identical to the same job in a ``repro
fleet`` batch (the ``serve`` scenario of ``benchmarks/gates.py``
enforces it).

Telemetry: the daemon keeps its own ``serve.*`` registry (submissions,
rejections by reason, pool hits/misses/refills summed over the worker
processes, worker scale events) and folds every finished job's guest
registry into one lifetime merge via
:func:`repro.telemetry.merge.merge_into`.
"""

from __future__ import annotations

import functools
import json
import os
import queue as queue_mod
import threading
import time
import traceback
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.fleet.jobs import JobAborted, JobResult, execute_job, prepare_offline_phase
from repro.fleet.library import ProfileLibrary, ProfileRecord
from repro.fleet.spec import DEFAULT_SEED, FleetJob
from repro.guest.config import GuestConfigError, resolve_guest
from repro.obs.metrics import AlertRule, MetricsRecorder
from repro.obs.store import (
    DEFAULT_COMPACT_AFTER_SECONDS,
    DEFAULT_RETAIN_SECONDS,
    DEFAULT_ROTATE_BYTES,
    DEFAULT_ROTATE_SECONDS,
    ObsStore,
)
from repro.serve import protocol
from repro.serve.pool import WarmPool
from repro.serve.queue import (
    REASON_NO_PROFILE,
    AdmissionError,
    JobQueue,
    QueuedJob,
    TenantPolicy,
)
from repro.serve.webhook import AlertWebhook
from repro.serve.worker import Spawner, WorkerProcess, serve_jobs
from repro.telemetry import Journal, Telemetry
from repro.telemetry.export import snapshot as telemetry_snapshot
from repro.telemetry.merge import empty_merge, merge_into

#: How often a daemon worker thread looks at its job's cancel flag and
#: tenant budget while it waits for the worker process's next message.
_POLL_SECONDS = 0.05

#: How often the supervisor sizes the worker pool to queue pressure.
_SCALE_SECONDS = 0.05

#: A worker process that sends nothing for its job's ``timeout`` plus
#: this many seconds is killed (it checks the timeout itself at every
#: progress step, so only a wedged process gets this far).
_WORKER_GRACE_SECONDS = 10.0

#: Per-variant pool counts that accumulate over the daemon's life; all
#: but ``forked`` are also ``serve.pool.*`` counters.
_POOL_TOTALS = ("forked", "hits", "misses", "refills")

#: Lifecycle events retained for late ``watch`` subscribers (journal
#: segments go to live subscribers only).
_EVENT_BACKLOG = 8192

#: Per-subscriber bounded event buffer (slow watchers drop, not block).
_WATCH_BUFFER = 1024


class ServeError(Exception):
    """Daemon-side operational failure (not an admission rejection)."""


#: Job error per abort reason.
_ABORT_ERRORS = {
    "cancelled": "cancelled while running",
    "tenant-budget": "tenant virtual-cycle budget exhausted mid-job",
    "timeout": "TimeoutError: job exceeded wall-clock timeout",
}


def _recovery_counts(telemetry: Dict[str, Any]) -> Dict[str, Any]:
    """A finished job's recovery count and verdicts, as its heartbeats
    report them, read from its telemetry (nothing when it has none)."""
    if not telemetry:
        return {}
    return {
        "recoveries": telemetry["counters"].get("recovery.recoveries", 0),
        "verdicts": telemetry["labelled_counters"].get("recovery.verdicts", {}),
    }


class EventSink:
    """A bounded per-subscriber event buffer.

    ``offer`` never blocks: a consumer that stops reading fills its own
    buffer and starts *dropping its own copies* of events -- the daemon
    and every other watcher are unaffected.  Drops are accounted per
    sink (``take_dropped`` feeds the synthetic ``watch-dropped`` event
    the stream handler sends when the consumer catches up) and in the
    daemon's ``serve.watch.dropped`` counter.
    """

    def __init__(self, maxsize: int = _WATCH_BUFFER) -> None:
        self._queue: queue_mod.Queue = queue_mod.Queue(maxsize=maxsize)
        self._lock = threading.Lock()
        self.dropped_total = 0
        self._dropped_pending = 0

    def offer(self, event: Dict[str, Any]) -> bool:
        """Enqueue without blocking; False (and a drop) when full."""
        try:
            self._queue.put_nowait(event)
            return True
        except queue_mod.Full:
            with self._lock:
                self.dropped_total += 1
                self._dropped_pending += 1
            return False

    def get(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._queue.get(timeout=timeout)

    def take_dropped(self) -> int:
        """Drops since the last call (consumed for drop-accounting)."""
        with self._lock:
            pending = self._dropped_pending
            self._dropped_pending = 0
            return pending


class ServeDaemon:
    """The long-lived fleet service (see module docstring)."""

    def __init__(
        self,
        library: ProfileLibrary,
        socket_path: Optional[str] = None,
        min_workers: int = 1,
        max_workers: int = 4,
        max_queue_depth: int = 64,
        default_policy: Optional[TenantPolicy] = None,
        warm_target: int = 2,
        base_seed: int = DEFAULT_SEED,
        heartbeat_interval: float = 0.25,
        auto_profile: bool = False,
        profile_scale: int = 4,
        metrics_interval: Optional[float] = 1.0,
        metrics_addr: Optional[str] = None,
        slo_latency: Optional[float] = None,
        alert_rules: Optional[Iterable[AlertRule]] = None,
        ops_journal: Optional[str] = None,
        watch_buffer: int = _WATCH_BUFFER,
        obs_dir: Optional[str] = None,
        obs_rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        obs_rotate_seconds: float = DEFAULT_ROTATE_SECONDS,
        obs_retain_seconds: float = DEFAULT_RETAIN_SECONDS,
        obs_compact_after: float = DEFAULT_COMPACT_AFTER_SECONDS,
        alert_webhook: Optional[str] = None,
    ) -> None:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers ({max_workers}) < min_workers ({min_workers})"
            )
        self.library = library
        self.socket_path = socket_path
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.base_seed = base_seed
        self.heartbeat_interval = heartbeat_interval
        self.auto_profile = auto_profile
        self.profile_scale = profile_scale
        #: the daemon's own registry: serve.* control-plane counters
        self.telemetry = Telemetry()
        self.queue = JobQueue(
            max_depth=max_queue_depth,
            default_policy=default_policy,
            telemetry=self.telemetry,
        )
        #: the snapshots and warm clones every worker process inherits;
        #: the workers' own pools report through :meth:`pool_stats`
        self.pool = WarmPool(warm_target=warm_target)
        self._spawner: Optional[Spawner] = None
        #: set once a spawn finds the spawner gone (under ``_workers_lock``)
        self._spawner_exited = False
        self._records: Dict[Any, ProfileRecord] = {}
        self._records_lock = threading.Lock()
        #: one lock per (app, build) being loaded or profiled
        self._profile_locks: Dict[Any, threading.Lock] = {}
        #: merged guest telemetry across every finished job, ever
        self._lifetime = empty_merge()
        self._lifetime_lock = threading.Lock()
        # event stream
        self._event_lock = threading.Lock()
        self._event_seq = 0
        self._events: List[Dict[str, Any]] = []
        self._subscribers: List[EventSink] = []
        self.watch_buffer = watch_buffer
        # service metrics: recorder, optional HTTP scrape, ops journal
        if metrics_addr is not None and metrics_interval is None:
            metrics_interval = 1.0  # a scrape endpoint implies sampling
        self.metrics: Optional[MetricsRecorder] = None
        if metrics_interval is not None:
            self.metrics = MetricsRecorder(
                interval=metrics_interval,
                rules=alert_rules,
                slo_latency=slo_latency,
            )
        self.metrics_addr = metrics_addr
        self.metrics_port: Optional[int] = None
        self._metrics_server = None
        self._metrics_thread: Optional[threading.Thread] = None
        self._stop_metrics = threading.Event()
        self._metrics_lock = threading.Lock()
        self._ops_journal_path = ops_journal
        self._ops_journal: Optional[Journal] = None
        # persistent observability archive + alert webhook (opened in
        # start() so a constructed-but-never-started daemon touches
        # neither disk nor network)
        self.obs_dir = obs_dir
        self.obs_rotate_bytes = obs_rotate_bytes
        self.obs_rotate_seconds = obs_rotate_seconds
        self.obs_retain_seconds = obs_retain_seconds
        self.obs_compact_after = obs_compact_after
        self._obs_store: Optional[ObsStore] = None
        self.alert_webhook_url = alert_webhook
        self._webhook: Optional[AlertWebhook] = None
        # worker pool: one thread per slot, each driving one process
        self._workers: Dict[int, threading.Thread] = {}
        self._procs: Dict[int, WorkerProcess] = {}
        #: per-variant pool counts: the start-up fill plus every change
        #: the worker processes have reported
        self._pool_totals: Dict[str, Dict[str, Any]] = {}
        self._workers_lock = threading.Lock()
        self._desired_workers = min_workers
        self._stop_workers = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        # server
        self._server_socket = None
        self._server_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self.started_at: Optional[float] = None
        self._stopping = threading.Event()
        self.stopped = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(
        self,
        apps: Optional[List[str]] = None,
        guests: Optional[List[Any]] = None,
    ) -> None:
        """Bring the daemon up: profiles, warm pools, workers, socket.

        ``apps`` are profiled into the library up front (once per kernel
        build); ``guests`` name the variants whose snapshot + warm-clone
        buffers are booted before the first submission arrives.  The
        worker spawner is forked after all of that and before any
        thread starts.  A start that fails partway is shut down before
        the error propagates, so it leaves no socket, archive, thread
        or process behind.
        """
        try:
            self._start(apps, guests)
        except BaseException:
            self.shutdown(drain=False)
            raise

    def _start(
        self, apps: Optional[List[str]], guests: Optional[List[Any]]
    ) -> None:
        self.started_at = time.time()
        if self.obs_dir is not None:
            from repro.obs.metrics import DEFAULT_CAPACITY, DEFAULT_RESOLUTIONS

            self._obs_store = ObsStore(
                self.obs_dir,
                rotate_bytes=self.obs_rotate_bytes,
                rotate_seconds=self.obs_rotate_seconds,
                retain_seconds=self.obs_retain_seconds,
                compact_after=self.obs_compact_after,
                meta={
                    "role": "serve-obs",
                    "pid": os.getpid(),
                    "interval": (
                        self.metrics.interval
                        if self.metrics is not None
                        else None
                    ),
                    "resolutions": list(DEFAULT_RESOLUTIONS),
                    "capacity": DEFAULT_CAPACITY,
                },
            )
        configs = [resolve_guest(ref) for ref in (guests or [None])]
        seen = set()
        for config in configs:
            if config.digest() in seen:
                continue
            seen.add(config.digest())
            if apps:
                prepare_offline_phase(
                    self.library, sorted(set(apps)),
                    scale=self.profile_scale, guest=config,
                )
            self.pool.ensure(config)
        self.pool.refill()
        # the start-up fill counts here, once: each worker process
        # inherits it and counts only its own work from zero (no other
        # thread exists yet, so no lock)
        self._count_pool({}, self.pool.stats())
        self._spawner = Spawner(
            functools.partial(
                serve_jobs,
                pool=self.pool,
                base_seed=self.base_seed,
                heartbeat_interval=self.heartbeat_interval,
                execute=execute_job,
            )
        )
        if self.alert_webhook_url:
            self._webhook = AlertWebhook(
                self.alert_webhook_url, telemetry=self.telemetry
            )
            self._webhook.start()
        self._scale_to(self.min_workers)
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()
        if self.socket_path is not None:
            self._server_socket = protocol.listen(self.socket_path)
            self._server_thread = threading.Thread(
                target=self._accept_loop, name="serve-accept", daemon=True
            )
            self._server_thread.start()
        if self._ops_journal_path is not None:
            self._ops_journal = Journal(
                path=self._ops_journal_path,
                meta={"role": "serve-ops", "pid": os.getpid()},
            )
        if self.metrics is not None:
            if self.metrics_addr is not None:
                self._start_metrics_http()
            self._metrics_thread = threading.Thread(
                target=self._metrics_loop, name="serve-metrics", daemon=True
            )
            self._metrics_thread.start()
        self._emit(
            {
                "type": "serve-started",
                "pid": os.getpid(),
                "variants": self.pool.variants(),
                "min_workers": self.min_workers,
                "max_workers": self.max_workers,
            }
        )

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Stop the daemon.  With ``drain``, queued and running jobs all
        finish first (no result is ever lost to a shutdown); without,
        queued jobs are cancelled and only running jobs complete."""
        if self._stopping.is_set():
            self.stopped.wait(timeout=timeout)
            return {"drained": True, "jobs": self.queue.describe()["states"]}
        self._stopping.set()
        self.queue.stop_accepting()
        self._emit({"type": "serve-draining", "drain": drain})
        if not drain:
            for job in self.queue.jobs():
                if job.state == "queued":
                    try:
                        self.queue.cancel(job.id)
                    except (KeyError, ValueError):
                        pass
        drained = self.queue.wait_drained(timeout=timeout)
        if self.metrics is not None:
            # one final sample so alerts that clear on drain (queue
            # saturation, worker stall) resolve before the books close
            self._sample_metrics()
            self._stop_metrics.set()
            if self._metrics_thread is not None:
                self._metrics_thread.join(timeout=5.0)
        if self._metrics_server is not None:
            try:
                self._metrics_server.shutdown()
                self._metrics_server.server_close()
            except OSError:
                pass
            self._metrics_server = None
        self._stop_workers.set()
        self._desired_workers = 0
        with self._workers_lock:
            workers = list(self._workers.values())
        for thread in workers:
            thread.join(timeout=5.0)
        if self._spawner is not None:
            self._spawner.close()
        if self._server_socket is not None:
            try:
                self._server_socket.close()
            except OSError:
                pass
            if (
                self.socket_path
                and not protocol.is_tcp_address(self.socket_path)
                and os.path.exists(self.socket_path)
            ):
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
        summary = {
            "drained": drained,
            "jobs": self.queue.describe()["states"],
        }
        self._emit({"type": "serve-stopped", **summary})
        if self._ops_journal is not None:
            self._ops_journal.close()
        if self._webhook is not None:
            self._webhook.stop()
        if self._obs_store is not None:
            # after the serve-stopped event and the final sample above,
            # so the archive's last records cover the whole lifecycle
            self._obs_store.close()
        self.stopped.set()
        return summary

    def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or KeyboardInterrupt)."""
        try:
            while not self.stopped.is_set():
                self.stopped.wait(timeout=0.2)
        except KeyboardInterrupt:
            self.shutdown(drain=True)

    # -- event stream ---------------------------------------------------------

    def _emit(self, message: Dict[str, Any]) -> None:
        with self._event_lock:
            self._event_seq += 1
            event = {"seq": self._event_seq, **message}
            subscribers = list(self._subscribers)
            # journal segments reach live subscribers and the per-trace
            # files only: they can be megabytes, so neither the backlog
            # nor the archive keeps them
            kind = message.get("type")
            if kind != "journal":
                self._events.append(event)
                if len(self._events) > _EVENT_BACKLOG:
                    del self._events[: len(self._events) - _EVENT_BACKLOG]
                # archive lifecycle events in seq order (an alert is
                # archived once, as its ``alert`` record); archive
                # failure never breaks the event stream
                if self._obs_store is not None and kind != "alert":
                    try:
                        self._obs_store.append_event(event)
                    except OSError:
                        self.telemetry.counter("serve.obs.errors").inc()
        dropped = 0
        for sink in subscribers:
            if not sink.offer(event):
                dropped += 1
        if dropped:
            self.telemetry.counter("serve.watch.dropped").inc(dropped)

    def subscribe(
        self, since: int = 0, maxsize: Optional[int] = None
    ) -> Tuple[EventSink, List[Dict[str, Any]]]:
        """Register a live event sink; returns (sink, backlog)."""
        sink = EventSink(maxsize=maxsize or self.watch_buffer)
        with self._event_lock:
            backlog = [e for e in self._events if e["seq"] > since]
            self._subscribers.append(sink)
        return sink, backlog

    def unsubscribe(self, sink) -> None:
        with self._event_lock:
            if sink in self._subscribers:
                self._subscribers.remove(sink)

    # -- submission ------------------------------------------------------------

    def _build_job(self, params: Dict[str, Any]) -> FleetJob:
        """Validate submission params into a FleetJob (ValueError on bad)."""
        from repro.apps.catalog import APP_CATALOG
        from repro.malware import ALL_ATTACKS

        app = params.get("app")
        if app not in APP_CATALOG:
            raise ValueError(
                f"unknown application {app!r} "
                f"(available: {', '.join(sorted(APP_CATALOG))})"
            )
        attack_name = params.get("attack")
        if attack_name is not None:
            attack = next(
                (a for a in ALL_ATTACKS if a.name == attack_name), None
            )
            if attack is None:
                raise ValueError(
                    f"unknown malware sample {attack_name!r} (available: "
                    f"{', '.join(sorted(a.name for a in ALL_ATTACKS))})"
                )
            if attack.host_app != app:
                raise ValueError(
                    f"{attack_name!r} infects {attack.host_app!r}, not {app!r}"
                )
        guest = None
        if params.get("guest") is not None:
            try:
                guest = resolve_guest(params["guest"])
            except GuestConfigError as exc:
                raise ValueError(f"guest: {exc}") from exc
        kwargs: Dict[str, Any] = {}
        if params.get("max_cycles") is not None:
            kwargs["max_cycles"] = int(params["max_cycles"])
        if params.get("timeout") is not None:
            kwargs["timeout"] = float(params["timeout"])
        return FleetJob(
            app=app,
            scale=int(params.get("scale", 2)),
            attack=attack_name,
            seed=params.get("seed"),
            guest=guest,
            name=str(params.get("name", "")),
            **kwargs,
        )

    def _has_profile(self, app: str, build_digest: str) -> bool:
        if (app, build_digest) in self._records:
            return True
        return (
            self.library.digest_of(app, build_digest) is not None
            or self.library.has(app)
        )

    def submit(
        self,
        params: Dict[str, Any],
        tenant: str = "default",
        priority: int = 0,
        trace_id: str = "",
    ) -> QueuedJob:
        """Admit one job (raises ValueError / AdmissionError).

        ``trace_id`` is normally minted by the client; a submission
        arriving without one gets an id minted here at admission, so
        every job is traceable end-to-end either way.
        """
        job = self._build_job(params)
        trace_id = str(trace_id or protocol.mint_trace_id())
        build = job.guest_config().build_digest()
        try:
            if not self.auto_profile and not self._has_profile(job.app, build):
                self.queue.reject(
                    tenant,
                    REASON_NO_PROFILE,
                    f"library has no profile for {job.app!r} on this kernel "
                    f"build; run 'repro.cli profile {job.app} --library ...' "
                    "or start the daemon with --auto-profile",
                )
            self.queue.assign_name(job)
            queued = self.queue.submit(
                job, tenant=tenant, priority=priority, trace_id=trace_id
            )
        except AdmissionError as exc:
            self._emit(
                {
                    "type": "rejected",
                    "app": job.app,
                    "tenant": tenant,
                    "reason": exc.reason,
                    "error": exc.message,
                    "trace": trace_id,
                }
            )
            raise
        self._emit(
            {
                "type": "queued",
                "id": queued.id,
                "job": job.name,
                "app": job.app,
                "tenant": tenant,
                "priority": priority,
                "trace": trace_id,
            }
        )
        return queued

    # -- worker pool ------------------------------------------------------------

    def _scale_to(self, desired: int) -> None:
        self._desired_workers = desired
        with self._workers_lock:
            alive = {
                wid for wid, t in self._workers.items() if t.is_alive()
            }
            for wid in range(desired):
                if wid in alive:
                    continue
                worker = self._spawn(wid)
                if worker is None:
                    return  # the spawner is gone: no slot without a process
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(wid, worker),
                    name=f"serve-worker-{wid}",
                    daemon=True,
                )
                self._workers[wid] = thread
                thread.start()
                self.telemetry.counter("serve.workers.spawned").inc()

    def _supervise(self) -> None:
        """Autoscale between bounds by queue pressure."""
        while not self._stop_workers.is_set():
            pressure = self.queue.pressure()
            desired = min(self.max_workers, max(self.min_workers, pressure))
            if desired != self._desired_workers:
                if desired > self._desired_workers:
                    self._scale_to(desired)
                else:
                    # shrink lazily: idle workers with ids past the target
                    # retire themselves on their next queue timeout
                    self._desired_workers = desired
                self._emit(
                    {"type": "scaled", "workers": desired, "pressure": pressure}
                )
            self._stop_workers.wait(timeout=_SCALE_SECONDS)

    def worker_count(self) -> int:
        """Live worker processes."""
        with self._workers_lock:
            return len(self._procs)

    def worker_pids(self) -> List[int]:
        """Pids of the live worker processes, by slot."""
        with self._workers_lock:
            return [self._procs[slot].pid for slot in sorted(self._procs)]

    def _worker_loop(
        self, worker_id: int, worker: Optional[WorkerProcess]
    ) -> None:
        try:
            while not self._stop_workers.is_set():
                if worker_id >= self._desired_workers:
                    # scaled down: retire only while idle
                    with self._workers_lock:
                        self._workers.pop(worker_id, None)
                    self.telemetry.counter("serve.workers.retired").inc()
                    break
                worker = self._tend(worker_id, worker)
                job = self.queue.next_job(timeout=0.05)
                if job is not None:
                    self._run_one(job, worker)
        finally:
            if worker is not None and not worker.conn.closed:
                self._release(worker)

    # -- worker processes --------------------------------------------------------

    def _spawn(self, slot: int) -> Optional[WorkerProcess]:
        """Fork and register a worker process for ``slot``; None once the
        spawner has exited, which the first failed spawn announces with a
        ``serve-spawner-exited`` event.  The caller holds
        ``_workers_lock``."""
        if self._spawner_exited:
            return None
        try:
            worker = self._procs[slot] = self._spawner.spawn(slot)
            return worker
        except OSError:
            self._spawner_exited = True
            self._emit(
                {"type": "serve-spawner-exited", "pid": self._spawner.pid}
            )
            return None

    def _tend(
        self, slot: int, worker: Optional[WorkerProcess]
    ) -> Optional[WorkerProcess]:
        """The slot's worker process, ready for a job: its pool reports
        read, and a new process forked if it died (None once the spawner
        has exited)."""
        if worker is not None and not worker.conn.closed:
            try:
                while worker.conn.poll():
                    self._note_pool(worker, worker.conn.recv()["pool"])
            except (EOFError, OSError):
                self._release(worker)  # died while idle: no job to fail
        if worker is None or worker.conn.closed:
            with self._workers_lock:
                worker = self._spawn(slot)
        return worker

    def _release(self, worker: WorkerProcess) -> str:
        """Stop and reap ``worker``; how it ended, in words."""
        with self._workers_lock:
            if self._procs.get(worker.slot) is worker:
                del self._procs[worker.slot]
        worker.conn.close()
        return self._spawner.stop(worker)

    def _count_pool(
        self, before: Dict[str, Any], after: Dict[str, Any]
    ) -> None:
        """Add what changed between two pool reports to the totals and
        to the ``serve.pool.*`` counters."""
        for digest, entry in after.items():
            old = before.get(digest, {})
            totals = self._pool_totals.setdefault(
                digest,
                {"label": entry["label"], **dict.fromkeys(_POOL_TOTALS, 0)},
            )
            for key in _POOL_TOTALS:
                delta = entry[key] - old.get(key, 0)
                totals[key] += delta
                if delta and key != "forked":
                    self.telemetry.labelled_counter(
                        f"serve.pool.{key}"
                    ).inc(digest, delta)

    def _note_pool(self, worker: WorkerProcess, stats: Dict[str, Any]) -> None:
        """Take a worker's pool report; count what changed since its last."""
        with self._workers_lock:
            before, worker.pool = worker.pool, stats
            self._count_pool(before, stats)

    def pool_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-variant pool stats: the totals since start-up, and the warm
        clones and targets of the live worker processes."""
        with self._workers_lock:
            merged = {
                digest: {
                    "label": totals["label"], "warm": 0, "target": 0,
                    **{key: totals[key] for key in _POOL_TOTALS},
                }
                for digest, totals in sorted(self._pool_totals.items())
            }
            for worker in self._procs.values():
                for digest, entry in worker.pool.items():
                    merged[digest]["warm"] += entry["warm"]
                    merged[digest]["target"] += entry["target"]
        return merged

    # -- job execution -----------------------------------------------------------

    def _record_for(self, job: FleetJob) -> ProfileRecord:
        """The job's profile record: cached, else loaded from the library,
        else (with ``auto_profile``) profiled.  Each (app, build) loads or
        profiles once, under its own lock, so a long offline profile never
        stalls another app's lookup."""
        config = job.guest_config()
        key = (job.app, config.build_digest())
        with self._records_lock:
            record = self._records.get(key)
            if record is not None:
                return record
            key_lock = self._profile_locks.setdefault(key, threading.Lock())
        with key_lock:
            record = self._records.get(key)
            if record is not None:
                return record
            if not self._has_profile(*key):
                if not self.auto_profile:
                    raise ServeError(
                        f"no profile for {job.app!r} on build "
                        f"{config.build_digest()[:12]}"
                    )
                prepare_offline_phase(
                    self.library, [job.app],
                    scale=self.profile_scale, guest=config,
                )
            record = self.library.get(job.app, config.build_digest())
            with self._records_lock:
                self._records[key] = record
            return record

    def _trace_writer(self, qjob: QueuedJob, meta: Dict[str, Any]):
        if self._obs_store is None or not qjob.trace_id:
            return None
        try:
            return self._obs_store.job_journal(qjob.trace_id, meta=meta)
        except OSError:
            self.telemetry.counter("serve.obs.errors").inc()
            return None

    def _drive(
        self, worker: Optional[WorkerProcess], qjob: QueuedJob
    ) -> JobResult:
        """Run ``qjob`` in ``worker``: relay its heartbeats and journal
        segments, pass on cancel and budget changes, and return its
        result.  An abort, a worker that dies before its result, one
        that falls silent past the job's timeout and no worker at all
        (the spawner has exited) raise :class:`JobAborted` with the
        cycles to charge."""
        if worker is None:
            raise JobAborted(
                "crashed", 0,
                "WorkerCrashed: the worker spawner has exited, so no "
                "worker process can run the job",
            )
        job = qjob.job
        name = job.name or job.identity()
        record = self._record_for(job)
        meta = {
            "trace": qjob.trace_id,
            "job": qjob.id,
            "name": name,
            "tenant": qjob.tenant,
            "app": job.app,
        }
        trace_writer = self._trace_writer(qjob, meta)
        budget = self.queue.remaining_budget(qjob.tenant)
        consumed = 0
        cancel_sent = False
        conn = worker.conn
        try:
            conn.send(
                {"job": job, "record": record, "budget": budget, "meta": meta}
            )
            heard = time.monotonic()
            while True:
                if qjob.cancel_requested and not cancel_sent:
                    conn.send(("cancel", None))
                    cancel_sent = True
                remaining = self.queue.remaining_budget(qjob.tenant)
                if remaining != budget:
                    budget = remaining
                    conn.send(("budget", remaining))
                if not conn.poll(_POLL_SECONDS):
                    silent = time.monotonic() - heard
                    if silent > job.timeout + _WORKER_GRACE_SECONDS:
                        cause = self._release(worker)
                        raise JobAborted(
                            "crashed", consumed,
                            f"TimeoutError: worker pid {worker.pid} sent "
                            f"nothing for {silent:.1f}s and {cause}",
                        )
                    continue
                message = conn.recv()
                heard = time.monotonic()
                kind = message["type"]
                if kind == "heartbeat":
                    consumed = message["consumed"]
                    self._emit(
                        {
                            "type": "heartbeat",
                            "id": qjob.id,
                            "job": name,
                            "tenant": qjob.tenant,
                            "cycles": message["cycles"],
                            "recoveries": message["recoveries"],
                            "verdicts": message["verdicts"],
                            "trace": qjob.trace_id,
                        }
                    )
                elif kind == "journal":
                    self._emit(
                        {
                            "type": "journal",
                            "id": qjob.id,
                            "job": name,
                            "records": message["records"],
                            "dropped": message["dropped"],
                            "trace": qjob.trace_id,
                        }
                    )
                    if trace_writer is not None:
                        try:
                            trace_writer.extend(
                                message["records"], message["dropped"]
                            )
                        except OSError:
                            self.telemetry.counter("serve.obs.errors").inc()
                elif kind == "pool":
                    self._note_pool(worker, message["pool"])
                elif kind == "aborted":
                    self._note_pool(worker, message["pool"])
                    raise JobAborted(message["reason"], message["consumed"])
                elif kind == "result":
                    self._note_pool(worker, message["pool"])
                    return message["result"]
        except (EOFError, OSError):
            cause = self._release(worker)
            raise JobAborted(
                "crashed", consumed,
                f"WorkerCrashed: worker pid {worker.pid} {cause} "
                "while running the job",
            ) from None
        finally:
            if trace_writer is not None:
                try:
                    trace_writer.close()
                except OSError:
                    self.telemetry.counter("serve.obs.errors").inc()

    def _run_one(
        self, qjob: QueuedJob, worker: Optional[WorkerProcess]
    ) -> None:
        job = qjob.job
        name = job.name or job.identity()
        self._emit(
            {
                "type": "start",
                "id": qjob.id,
                "job": name,
                "app": job.app,
                "tenant": qjob.tenant,
                "trace": qjob.trace_id,
            }
        )
        try:
            result = self._drive(worker, qjob)
        except JobAborted as abort:
            state = "cancelled" if abort.reason == "cancelled" else "failed"
            error = abort.detail or _ABORT_ERRORS[abort.reason]
            self.queue.finish(
                qjob, state, error=error,
                charged_cycles=abort.consumed_cycles,
            )
            self._emit(
                {
                    "type": "cancelled" if state == "cancelled" else "done",
                    "id": qjob.id,
                    "job": name,
                    "tenant": qjob.tenant,
                    "ok": False,
                    "error": error,
                    "trace": qjob.trace_id,
                }
            )
            return
        except Exception as exc:  # noqa: BLE001 - crash isolation boundary
            error = (
                f"{type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc(limit=4)}"
            )
            self.queue.finish(qjob, "failed", error=error)
            self._emit(
                {
                    "type": "done",
                    "id": qjob.id,
                    "job": name,
                    "tenant": qjob.tenant,
                    "ok": False,
                    "error": error.splitlines()[0],
                    "trace": qjob.trace_id,
                }
            )
            return
        data = result.to_dict()
        data["id"] = qjob.id
        data["tenant"] = qjob.tenant
        if result.telemetry:
            with self._lifetime_lock:
                merge_into(self._lifetime, result.telemetry)
        state = "done" if result.ok else "failed"
        self.queue.finish(
            qjob,
            state,
            result=data,
            error=result.error,
            charged_cycles=result.job_cycles,
        )
        self._emit(
            {
                "type": "done",
                "id": qjob.id,
                "job": name,
                "tenant": qjob.tenant,
                "ok": result.ok,
                "error": result.error,
                "cycles": result.cycles,
                "detected": result.detected,
                **_recovery_counts(result.telemetry),
                "trace": qjob.trace_id,
            }
        )

    # -- queries -----------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lifetime_lock:
            import copy

            lifetime = copy.deepcopy(self._lifetime)
        return {
            "version": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "queue": self.queue.describe(),
            "pool": self.pool_stats(),
            "workers": {
                "alive": self.worker_count(),
                "desired": self._desired_workers,
                "min": self.min_workers,
                "max": self.max_workers,
                "pids": self.worker_pids(),
                "spawner": (
                    None if self._spawner is None or self._spawner_exited
                    else self._spawner.pid
                ),
            },
            "serve": telemetry_snapshot(self.telemetry),
            "jobs_telemetry": lifetime,
        }

    # -- service metrics ----------------------------------------------------------

    def metrics_view(self) -> Dict[str, Any]:
        """One sample tick's raw inputs, all from snapshot paths.

        Queue description, job lifecycle timestamps, pool stats, the
        ``serve.*`` registry and the lifetime job-telemetry merge --
        never a running machine, so sampling cannot perturb
        virtual-cycle scores.
        """
        jobs = [
            {
                "id": j.id,
                "tenant": j.tenant,
                "state": j.state,
                "submitted_at": j.submitted_at,
                "started_at": j.started_at,
                "finished_at": j.finished_at,
            }
            for j in self.queue.jobs()
        ]
        with self._lifetime_lock:
            jobs_counters = dict(self._lifetime["counters"])
            jobs_labelled = {
                name: dict(values)
                for name, values in self._lifetime["labelled_counters"].items()
            }
        return {
            "now": time.time(),
            "queue": self.queue.describe(),
            "jobs": jobs,
            "pool": self.pool_stats(),
            "workers": {
                "alive": self.worker_count(),
                "desired": self._desired_workers,
            },
            # dict() snapshots are atomic under the GIL; iterating the
            # live registry dicts would race with lazy counter creation
            "serve_counters": {
                name: counter.value
                for name, counter in dict(self.telemetry.counters).items()
            },
            "serve_labelled": {
                name: {str(k): v for k, v in dict(counter.values).items()}
                for name, counter in dict(self.telemetry.labelled).items()
            },
            "jobs_counters": jobs_counters,
            "jobs_labelled": jobs_labelled,
        }

    def _sample_metrics(self) -> List[Any]:
        """Take one sample tick and fan out any alert transitions."""
        if self.metrics is None:
            return []
        with self._metrics_lock:
            view = self.metrics_view()
            tap = [] if self._obs_store is not None else None
            transitions = self.metrics.sample(view, tap=tap)
            if self._obs_store is not None and tap:
                try:
                    self._obs_store.append_sample(view["now"], tap)
                except OSError:
                    self.telemetry.counter("serve.obs.errors").inc()
        for transition in transitions:
            self.telemetry.labelled_counter("serve.alerts").inc(
                f"{transition.rule}:{transition.state}"
            )
            self._emit({"type": "alert", **transition.to_dict()})
            if self._ops_journal is not None:
                self._ops_journal.append("alert", **transition.to_dict())
                self._ops_journal.flush()
            if self._obs_store is not None:
                try:
                    self._obs_store.append_alert(transition)
                except OSError:
                    self.telemetry.counter("serve.obs.errors").inc()
            if self._webhook is not None:
                self._webhook.offer(
                    {"type": "alert", **transition.to_dict()}
                )
        return transitions

    def _metrics_loop(self) -> None:
        self._sample_metrics()
        while not self._stop_metrics.wait(timeout=self.metrics.interval):
            self._sample_metrics()

    def metrics_describe(self) -> Dict[str, Any]:
        """The compact JSON the ``metrics`` op and ``ctl top`` consume."""
        if self.metrics is None:
            raise ServeError("metrics recorder is disabled")
        data = self.metrics.describe()
        data["pid"] = os.getpid()
        data["uptime_seconds"] = (
            time.time() - self.started_at if self.started_at else 0.0
        )
        return data

    def metrics_text(self) -> str:
        """The Prometheus scrape body (socket op and HTTP listener)."""
        if self.metrics is None:
            raise ServeError("metrics recorder is disabled")
        import copy

        with self._lifetime_lock:
            jobs_snapshot = {
                "counters": dict(self._lifetime["counters"]),
                "labelled_counters": {
                    name: dict(values)
                    for name, values in self._lifetime[
                        "labelled_counters"
                    ].items()
                },
                "histograms": copy.deepcopy(self._lifetime["histograms"]),
            }
        return self.metrics.to_prometheus(
            serve_snapshot=telemetry_snapshot(self.telemetry),
            jobs_snapshot=jobs_snapshot,
        )

    def _start_metrics_http(self) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        daemon = self

        class MetricsHandler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib interface
                if self.path in ("/", "/metrics"):
                    body = daemon.metrics_text().encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path == "/metrics.json":
                    body = json.dumps(
                        daemon.metrics_describe(), sort_keys=True
                    ).encode("utf-8")
                    ctype = "application/json"
                else:
                    self.send_error(404, "try /metrics or /metrics.json")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes are periodic; don't spam the daemon log

        host, _, port = self.metrics_addr.rpartition(":")
        if not host:
            raise ServeError(
                f"metrics address {self.metrics_addr!r} must be host:port"
            )
        server = ThreadingHTTPServer((host, int(port)), MetricsHandler)
        server.daemon_threads = True
        self._metrics_server = server
        self.metrics_port = server.server_address[1]
        threading.Thread(
            target=server.serve_forever,
            name="serve-metrics-http",
            daemon=True,
        ).start()

    # -- control socket ------------------------------------------------------------

    def _accept_loop(self) -> None:
        server = self._server_socket
        while not self._stopping.is_set():
            try:
                conn, _ = server.accept()
            except OSError:
                break  # socket closed during shutdown
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ] + [thread]

    def _handle_connection(self, conn) -> None:
        reader = None
        try:
            reader = conn.makefile("rb")
            request = protocol.recv_message(reader)
            if request is None:
                return
            self._dispatch_request(conn, reader, request)
        except (OSError, protocol.ProtocolError):
            pass
        finally:
            protocol.close_quietly(reader, conn)

    def _dispatch_request(self, conn, reader, request: Dict[str, Any]) -> None:
        op = request.get("op")
        try:
            if op == "ping":
                protocol.send_message(
                    conn,
                    {
                        "ok": True,
                        "version": protocol.PROTOCOL_VERSION,
                        "pid": os.getpid(),
                        "accepting": self.queue.accepting,
                    },
                )
            elif op == "submit":
                self._handle_submit(conn, request)
            elif op == "status":
                self._handle_status(conn, request)
            elif op == "result":
                self._handle_result(conn, request)
            elif op == "cancel":
                self._handle_cancel(conn, request)
            elif op == "stats":
                protocol.send_message(conn, {"ok": True, "stats": self.stats()})
            elif op == "metrics":
                self._handle_metrics(conn, request)
            elif op == "watch":
                self._handle_watch(conn, request)
            elif op == "shutdown":
                summary = self.shutdown(
                    drain=bool(request.get("drain", True)),
                    timeout=request.get("timeout"),
                )
                protocol.send_message(conn, {"ok": True, **summary})
            else:
                protocol.send_message(
                    conn,
                    {
                        "ok": False,
                        "reason": "unknown-op",
                        "error": f"unknown op {op!r}",
                    },
                )
        except (OSError, protocol.ProtocolError):
            pass  # client went away mid-response

    def _handle_submit(self, conn, request: Dict[str, Any]) -> None:
        tenant = str(request.get("tenant", "default"))
        priority = int(request.get("priority", 0))
        trace = str(request.get("trace") or "")
        try:
            queued = self.submit(
                request.get("job") or {},
                tenant=tenant,
                priority=priority,
                trace_id=trace,
            )
        except ValueError as exc:
            protocol.send_message(
                conn,
                {"ok": False, "reason": "bad-request", "error": str(exc)},
            )
            return
        except AdmissionError as exc:
            protocol.send_message(
                conn,
                {"ok": False, "reason": exc.reason, "error": exc.message},
            )
            return
        protocol.send_message(
            conn,
            {
                "ok": True,
                "id": queued.id,
                "name": queued.job.name,
                "state": queued.state,
                "trace": queued.trace_id,
            },
        )

    def _handle_status(self, conn, request: Dict[str, Any]) -> None:
        job_id = request.get("id")
        if job_id is None:
            protocol.send_message(
                conn,
                {
                    "ok": True,
                    "jobs": [
                        j.describe()
                        for j in sorted(
                            self.queue.jobs(), key=lambda j: j.id
                        )
                    ],
                },
            )
            return
        job = self.queue.get(str(job_id))
        if job is None:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "unknown-job",
                    "error": f"unknown job id {job_id!r}",
                },
            )
            return
        protocol.send_message(conn, {"ok": True, "job": job.describe()})

    def _handle_result(self, conn, request: Dict[str, Any]) -> None:
        job_id = str(request.get("id", ""))
        wait = bool(request.get("wait", False))
        timeout = request.get("timeout")
        job = self.queue.get(job_id)
        if job is None:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "unknown-job",
                    "error": f"unknown job id {job_id!r}",
                },
            )
            return
        if wait:
            job = self.queue.wait_terminal(
                job_id, timeout=float(timeout) if timeout else None
            )
            if job is None:
                protocol.send_message(
                    conn,
                    {
                        "ok": False,
                        "reason": "timeout",
                        "error": f"job {job_id} not finished within timeout",
                    },
                )
                return
        elif not job.terminal:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "not-finished",
                    "error": f"job {job_id} is {job.state}; "
                    "pass wait to block for the result",
                },
            )
            return
        protocol.send_message(
            conn,
            {
                "ok": True,
                "job": job.describe(),
                "result": job.result,
            },
        )

    def _handle_cancel(self, conn, request: Dict[str, Any]) -> None:
        job_id = str(request.get("id", ""))
        try:
            action = self.queue.cancel(job_id)
        except KeyError:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "unknown-job",
                    "error": f"unknown job id {job_id!r}",
                },
            )
            return
        except ValueError as exc:
            protocol.send_message(
                conn,
                {"ok": False, "reason": "already-terminal", "error": str(exc)},
            )
            return
        if action == "cancelled":
            job = self.queue.get(job_id)
            self._emit(
                {
                    "type": "cancelled",
                    "id": job_id,
                    "job": job.job.name if job else job_id,
                    "tenant": job.tenant if job else "",
                    "ok": False,
                    "error": "cancelled while queued",
                    "trace": job.trace_id if job else "",
                }
            )
        protocol.send_message(conn, {"ok": True, "action": action})

    def _handle_metrics(self, conn, request: Dict[str, Any]) -> None:
        if self.metrics is None:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "no-metrics",
                    "error": "the daemon was started with metrics disabled "
                    "(metrics_interval=None)",
                },
            )
            return
        fmt = str(request.get("format", "json"))
        if fmt == "prom":
            protocol.send_message(
                conn, {"ok": True, "format": "prom", "text": self.metrics_text()}
            )
        elif fmt == "series":
            protocol.send_message(
                conn,
                {
                    "ok": True,
                    "format": "series",
                    "metrics": self.metrics.export_series(),
                },
            )
        else:
            protocol.send_message(
                conn,
                {
                    "ok": True,
                    "format": "json",
                    "metrics": self.metrics_describe(),
                },
            )

    def _handle_watch(self, conn, request: Dict[str, Any]) -> None:
        since = int(request.get("since", 0))
        sink, backlog = self.subscribe(since=since)
        try:
            protocol.send_message(conn, {"ok": True, "streaming": True})
            for event in backlog:
                protocol.send_message(conn, event)
            while not self.stopped.is_set():
                dropped = sink.take_dropped()
                if dropped:
                    # the consumer fell behind its bounded buffer; tell
                    # it exactly how many events it lost
                    protocol.send_message(
                        conn, {"type": "watch-dropped", "dropped": dropped}
                    )
                try:
                    event = sink.get(timeout=0.2)
                except queue_mod.Empty:
                    continue
                protocol.send_message(conn, event)
        finally:
            self.unsubscribe(sink)
