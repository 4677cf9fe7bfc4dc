"""Fleet runner: a work-queue scheduler over snapshot-forked guests.

The parent process boots **one** machine, captures a
:class:`~repro.fleet.snapshot.MachineSnapshot`, and loads every needed
profile from the library.  Only then does it create the worker pool --
on POSIX the pool uses the ``fork`` start method, so workers inherit
the snapshot, the warm assembler caches and the loaded profile records
through the copied address space with **zero pickling and zero
re-boots**.  Each job then costs a worker one in-memory CoW fork plus
the workload itself.

Isolation properties:

* a job that raises inside a worker returns a failure
  :class:`JobResult` -- it cannot take the fleet down;
* each job has a wall-clock timeout; a stuck guest marks its job
  failed and the fleet carries on;
* guests never share mutable state -- every clone has private frames
  (CoW) and a private telemetry registry, merged only after the fact.

Platforms without ``fork`` (or ``workers=1``) degrade gracefully to an
in-process threaded pool / serial loop with identical semantics --
results are bit-identical in every mode by construction.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.fleet.jobs import JobResult, execute_job, run_job_on_clone
from repro.fleet.library import ProfileLibrary, ProfileRecord
from repro.fleet.snapshot import MachineSnapshot
from repro.fleet.spec import FleetJob, FleetSpec
from repro.guest.config import GuestConfig
from repro.guest.machine import boot_machine
from repro.telemetry.journal import JOURNAL_SCHEMA
from repro.telemetry.merge import merge_snapshots

#: Worker state inherited through ``fork`` (or shared with threads).
#: Populated in the parent *before* the pool exists; never pickled.
_WORKER: Dict[str, Any] = {}


def _configure_workers(
    snapshots: Dict[str, MachineSnapshot],
    records: Dict[Any, ProfileRecord],
    base_seed: int,
    bus: Optional[Any] = None,
    heartbeat_interval: float = 0.5,
) -> None:
    #: one snapshot per guest variant, keyed by full config digest
    _WORKER["snapshots"] = snapshots
    #: profile records keyed by (app, guest build digest)
    _WORKER["records"] = records
    _WORKER["seed"] = base_seed
    _WORKER["bus"] = bus
    _WORKER["heartbeat"] = heartbeat_interval


def _run_job(job_data: Dict[str, Any]) -> Dict[str, Any]:
    """Pool entry point: fork a clone, run the job, ship the result.

    Takes and returns plain dicts so only small JSON-able payloads
    cross the process boundary.  :func:`run_job_on_clone` converts any
    exception into a failure result inside the worker, so one bad job
    never poisons the pool; with a bus configured it also streams the
    job's live messages to the parent.
    """
    job = FleetJob(**job_data)
    guest = job.guest_config()
    digest = guest.digest()
    bus = _WORKER.get("bus")
    result = run_job_on_clone(
        lambda: _WORKER["snapshots"][digest].fork(expect_digest=digest),
        job,
        _WORKER["records"][(job.app, guest.build_digest())],
        base_seed=_WORKER["seed"],
        send=bus.put if bus is not None else None,
        heartbeat_interval=_WORKER.get("heartbeat", 0.5),
        execute=execute_job,
    )
    data = result.to_dict()
    data["telemetry"] = result.telemetry
    return data


@dataclass
class FleetReport:
    """Everything one fleet run produced, merge included."""

    spec_name: str
    workers: int
    mode: str
    results: List[Dict[str, Any]] = field(default_factory=list)
    telemetry: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    forked: int = 0
    base_frames: int = 0
    #: guest variants the fleet ran on: short digest -> label + job count
    variants: Dict[str, Any] = field(default_factory=dict)
    #: per-job journal files written when a journal dir was configured
    journal_paths: Dict[str, str] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r["ok"])

    @property
    def failed(self) -> int:
        return len(self.results) - self.completed

    @property
    def throughput(self) -> float:
        """Completed jobs per wall-clock second."""
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    def to_dict(self) -> Dict[str, Any]:
        results = []
        for r in self.results:
            row = dict(r)
            row.pop("telemetry", None)
            results.append(row)
        return {
            "spec": self.spec_name,
            "workers": self.workers,
            "mode": self.mode,
            "jobs": len(self.results),
            "completed": self.completed,
            "failed": self.failed,
            "wall_seconds": self.wall_seconds,
            "throughput_jobs_per_s": self.throughput,
            "forked": self.forked,
            "base_frames": self.base_frames,
            "variants": self.variants,
            "journal_paths": self.journal_paths,
            "results": results,
            "telemetry": self.telemetry,
        }

    def format_summary(self) -> str:
        lines = [
            f"fleet {self.spec_name!r}: {self.completed}/{len(self.results)} "
            f"jobs completed in {self.wall_seconds:.2f}s "
            f"({self.throughput:.2f} jobs/s, {self.workers} workers, {self.mode})"
        ]
        if len(self.variants) > 1:
            variant_bits = ", ".join(
                f"{info['label']} x{info['jobs']}"
                for info in self.variants.values()
            )
            lines.append(f"  guest variants: {variant_bits}")
        for r in self.results:
            status = "ok" if r["ok"] else "FAILED"
            extra = ""
            if r.get("detected") is not None:
                extra = "  detected" if r["detected"] else "  missed"
            if not r["ok"]:
                extra = f"  {r['error'].splitlines()[0] if r['error'] else ''}"
            lines.append(
                f"  {r['name']:<24} {status:<7} "
                f"cycles={r['cycles']:<14} syscalls={r['syscalls']:<8}{extra}"
            )
        return "\n".join(lines)


class FleetRunner:
    """Schedules a :class:`FleetSpec` across snapshot-forked guests."""

    def __init__(
        self,
        spec: FleetSpec,
        library: ProfileLibrary,
        snapshot: Optional[MachineSnapshot] = None,
        use_processes: Optional[bool] = None,
        on_message: Optional[Callable[[Dict[str, Any]], None]] = None,
        heartbeat_interval: float = 0.5,
        journal_dir: Optional[Any] = None,
    ) -> None:
        self.spec = spec
        self.library = library
        self.snapshot = snapshot
        if use_processes is None:
            use_processes = (
                spec.workers > 1
                and "fork" in multiprocessing.get_all_start_methods()
            )
        self.use_processes = use_processes
        #: parent-side sink for live worker messages (watch mode)
        self.on_message = on_message
        self.heartbeat_interval = heartbeat_interval
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self._bus: Optional[Any] = None
        self._job_started: Dict[str, float] = {}
        #: journal segments collected per job (journal_dir mode)
        self._segments: Dict[str, List[Dict[str, Any]]] = {}
        self._segment_drops: Dict[str, int] = {}

    def _guest_configs(self) -> Dict[str, GuestConfig]:
        """Distinct guest variants in the spec, keyed by full digest."""
        configs: Dict[str, GuestConfig] = {}
        for job in self.spec.jobs:
            config = job.guest_config()
            configs.setdefault(config.digest(), config)
        return configs

    def _load_records(self) -> Dict[Any, ProfileRecord]:
        """Checksum-validated profile load for every (app, build) pair."""
        records: Dict[Any, ProfileRecord] = {}
        for job in self.spec.jobs:
            build = job.guest_config().build_digest()
            key = (job.app, build)
            if key not in records:
                records[key] = self.library.get(job.app, build)
        return records

    @property
    def streaming(self) -> bool:
        """True when workers should stream live messages to the parent."""
        return self.on_message is not None or self.journal_dir is not None

    def run(self) -> FleetReport:
        started = time.perf_counter()
        records = self._load_records()
        configs = self._guest_configs()
        # one snapshot per guest variant: booted once, forked many times
        snapshots: Dict[str, MachineSnapshot] = {}
        if self.snapshot is not None:
            snapshots[self.snapshot.guest_digest] = self.snapshot
        for digest, config in configs.items():
            if digest not in snapshots:
                snapshots[digest] = boot_machine(config=config).snapshot()
        if self.snapshot is None and len(configs) == 1:
            self.snapshot = next(iter(snapshots.values()))
        forked_before = {
            digest: snap.fork_count for digest, snap in snapshots.items()
        }
        bus = None
        if self.streaming:
            # created before the pool so fork-started workers inherit it
            if self.use_processes and self.spec.workers > 1:
                bus = multiprocessing.get_context("fork").Queue()
            else:
                bus = queue_mod.Queue()
        self._bus = bus
        # workers inherit this through fork() / share it with threads
        _configure_workers(
            snapshots,
            records,
            self.spec.seed,
            bus=bus,
            heartbeat_interval=self.heartbeat_interval,
        )
        job_dicts = [
            {
                "app": job.app,
                "scale": job.scale,
                "attack": job.attack,
                "seed": job.seed,
                "max_cycles": job.max_cycles,
                "timeout": job.timeout,
                "guest": job.guest.to_dict() if job.guest is not None else None,
                "name": job.name,
            }
            for job in self.spec.jobs
        ]
        if self.spec.workers == 1:
            mode = "serial"
            results = []
            for d in job_dicts:
                results.append(_run_job(d))
                self._drain_bus()
        elif self.use_processes:
            mode = "processes"
            results = self._run_pool(
                multiprocessing.get_context("fork").Pool, job_dicts
            )
        else:
            mode = "threads"
            from multiprocessing.pool import ThreadPool

            results = self._run_pool(ThreadPool, job_dicts)
        self._drain_bus()
        journal_paths = self._write_journals()
        telemetry = merge_snapshots(
            [r.get("telemetry", {}) for r in results if r.get("telemetry")],
            sources=[r["name"] for r in results if r.get("telemetry")],
        )
        variant_jobs: Dict[str, int] = {}
        for job in self.spec.jobs:
            digest = job.guest_config().digest()
            variant_jobs[digest] = variant_jobs.get(digest, 0) + 1
        report = FleetReport(
            spec_name=self.spec.name,
            workers=self.spec.workers,
            mode=mode,
            results=results,
            telemetry=telemetry,
            wall_seconds=time.perf_counter() - started,
            # under processes the forks happen in worker address spaces;
            # a job that shipped telemetry necessarily ran on a clone
            forked=(
                sum(
                    snap.fork_count - forked_before[digest]
                    for digest, snap in snapshots.items()
                )
                if mode != "processes"
                else sum(1 for r in results if r.get("telemetry"))
            ),
            base_frames=sum(snap.frame_count for snap in snapshots.values()),
            variants={
                digest[:12]: {
                    "label": configs[digest].label(),
                    "jobs": count,
                }
                for digest, count in sorted(variant_jobs.items())
            },
            journal_paths=journal_paths,
        )
        return report

    # -- live message plumbing ---------------------------------------------------

    def _dispatch(self, message: Dict[str, Any]) -> None:
        if message.get("type") == "start":
            self._job_started[message.get("job", "?")] = time.monotonic()
        if self.journal_dir is not None and message.get("type") == "journal":
            name = message.get("job", "?")
            self._segments.setdefault(name, []).extend(
                message.get("records", [])
            )
            self._segment_drops[name] = self._segment_drops.get(
                name, 0
            ) + message.get("dropped", 0)
        if self.on_message is not None:
            self.on_message(message)

    def _drain_bus(self) -> None:
        bus = self._bus
        if bus is None:
            return
        while True:
            try:
                message = bus.get_nowait()
            except queue_mod.Empty:
                return
            self._dispatch(message)

    def _write_journals(self) -> Dict[str, str]:
        """Reassemble streamed segments into per-job journal files.

        The files parse with :func:`repro.telemetry.journal.load_journal`:
        seqs come from the workers' journals and any capacity evictions
        are accounted in the footer, so completeness checks still hold.
        """
        if self.journal_dir is None:
            return {}
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, str] = {}
        for name, records in sorted(self._segments.items()):
            path = self.journal_dir / f"{name.replace('/', '_')}.jsonl"
            dropped = self._segment_drops.get(name, 0)
            last_seq = records[-1]["seq"] if records else 0
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(
                        {
                            "t": "header",
                            "schema": JOURNAL_SCHEMA,
                            "meta": {"job": name, "spec": self.spec.name},
                        },
                        separators=(",", ":"),
                        sort_keys=True,
                    )
                    + "\n"
                )
                for record in records:
                    fh.write(
                        json.dumps(record, separators=(",", ":"), sort_keys=True)
                        + "\n"
                    )
                fh.write(
                    json.dumps(
                        {"t": "footer", "records": last_seq, "dropped": dropped},
                        separators=(",", ":"),
                        sort_keys=True,
                    )
                    + "\n"
                )
            paths[name] = str(path)
        return paths

    def _run_pool(self, pool_factory, job_dicts: List[Dict[str, Any]]):
        results: List[Optional[Dict[str, Any]]] = [None] * len(job_dicts)
        pool = pool_factory(self.spec.workers)
        try:
            pending = [
                (i, d, pool.apply_async(_run_job, (d,)))
                for i, d in enumerate(job_dicts)
            ]
            if self._bus is not None:
                self._poll_pool(pending, results)
            else:
                for i, d, handle in pending:
                    try:
                        results[i] = handle.get(timeout=d["timeout"])
                    except multiprocessing.TimeoutError:
                        results[i] = self._failure(d, "TimeoutError: job exceeded wall-clock timeout")
                    except Exception as exc:  # pool breakage / worker death
                        results[i] = self._failure(d, f"{type(exc).__name__}: {exc}")
        finally:
            pool.terminate()
            pool.join()
        return [r for r in results if r is not None]

    def _poll_pool(self, pending, results) -> None:
        """Watch-mode pool loop: drain the bus while jobs complete.

        Unlike the sequential path, messages are consumed *while* jobs
        run (that is the point).  A job's timeout countdown starts at
        its worker's ``start`` message (pool submission as fallback for
        jobs that never start).
        """
        submitted = time.monotonic()
        remaining = {i: (d, handle) for i, d, handle in pending}
        while remaining:
            self._drain_bus()
            for i in list(remaining):
                d, handle = remaining[i]
                if handle.ready():
                    try:
                        results[i] = handle.get()
                    except Exception as exc:  # pool breakage / worker death
                        results[i] = self._failure(
                            d, f"{type(exc).__name__}: {exc}"
                        )
                    del remaining[i]
                    continue
                name = d.get("name") or ""
                base = self._job_started.get(name, submitted)
                if time.monotonic() - base > d["timeout"]:
                    results[i] = self._failure(
                        d, "TimeoutError: job exceeded wall-clock timeout"
                    )
                    del remaining[i]
            if remaining:
                time.sleep(0.02)
        self._drain_bus()

    @staticmethod
    def _failure(job_data: Dict[str, Any], error: str) -> Dict[str, Any]:
        job = FleetJob(**job_data)
        result = JobResult(
            name=job.name or job.identity(),
            app=job.app,
            attack=job.attack,
            ok=False,
            error=error,
        )
        return result.to_dict()


def run_fleet(
    spec: FleetSpec,
    library: ProfileLibrary,
    snapshot: Optional[MachineSnapshot] = None,
    use_processes: Optional[bool] = None,
    on_message: Optional[Callable[[Dict[str, Any]], None]] = None,
    heartbeat_interval: float = 0.5,
    journal_dir: Optional[Any] = None,
) -> FleetReport:
    """Convenience wrapper: build a :class:`FleetRunner` and run it."""
    return FleetRunner(
        spec,
        library,
        snapshot=snapshot,
        use_processes=use_processes,
        on_message=on_message,
        heartbeat_interval=heartbeat_interval,
        journal_dir=journal_dir,
    ).run()
