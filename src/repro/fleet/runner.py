"""Fleet runner: a spec run as one in-process serve-daemon session.

:func:`run_fleet` is the batch face of :mod:`repro.serve`: it starts a
:class:`~repro.serve.daemon.ServeDaemon` with ``spec.workers`` worker
processes, no control socket and no metrics, and with every guest
variant of the spec booted and snapshotted before the workers are
forked, so each worker inherits every snapshot and the loaded code
caches with zero pickling and zero re-boots.  It then submits each job
under its spec name, relays the jobs' events to the caller and to the
per-job journal files, drains the daemon and reports.  A job costs its
worker one in-memory CoW fork plus the workload itself.

Isolation properties are the daemon's:

* a job that raises returns a failure :class:`JobResult` -- it cannot
  take the fleet down;
* each job has a wall-clock timeout; a stuck guest fails its job and
  the fleet carries on;
* a worker process that dies fails only the job it was running, and
  its slot forks a replacement;
* guests never share mutable state -- every clone has private frames
  (CoW) and a private telemetry registry, merged only after the fact.

A job runs through the same :func:`repro.fleet.jobs.run_job_on_clone`
path with the same derived seed as a ``repro serve`` submission, so its
score is the same whichever way it was run.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.fleet.jobs import JobResult
from repro.fleet.library import ProfileLibrary
from repro.fleet.spec import FleetSpec
from repro.telemetry.journal import Journal

#: The daemon events a fleet relays: each job's own.
_JOB_EVENTS = ("start", "heartbeat", "journal", "done")


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
            "results": self.results,
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


def _row(qjob: Any) -> Dict[str, Any]:
    """A finished :class:`~repro.serve.queue.QueuedJob`'s report row, as
    ``JobResult.to_dict()`` gives it."""
    if qjob.result is None:  # it ended without a result: timed out, crashed
        job = qjob.job
        return JobResult(
            name=job.name, app=job.app, attack=job.attack, ok=False,
            error=qjob.error,
        ).to_dict()
    return {
        key: value
        for key, value in qjob.result.items()
        if key not in ("id", "tenant")
    }


def run_fleet(
    spec: FleetSpec,
    library: ProfileLibrary,
    on_message: Optional[Callable[[Dict[str, Any]], None]] = None,
    heartbeat_interval: float = 0.5,
    journal_dir: Optional[Any] = None,
) -> FleetReport:
    """Run ``spec`` to the end as one serve-daemon session.

    Every (app, kernel build) profile is loaded first, so a missing or
    corrupt one raises :class:`~repro.fleet.library.ProfileLibraryError`
    before anything boots.  ``on_message`` receives each job's
    ``start`` / ``heartbeat`` / ``journal`` / ``done`` events as the
    daemon emits them (heartbeats at most every ``heartbeat_interval``
    wall-clock seconds).  With ``journal_dir``, each job's span journal
    is written to ``<journal_dir>/<name>.jsonl`` (``/`` in the name
    becomes ``_``) as its segments arrive.
    """
    from repro.serve.daemon import ServeDaemon  # it imports this package

    started = time.perf_counter()
    for app, build in {
        (job.app, job.guest_config().build_digest()) for job in spec.jobs
    }:
        library.get(app, build)
    configs = {job.guest_config().digest(): job.guest_config() for job in spec.jobs}
    daemon = ServeDaemon(
        library,
        min_workers=spec.workers,
        max_workers=spec.workers,
        max_queue_depth=len(spec.jobs),
        # each job forks its clone on demand; a warm buffer would be
        # refilled after every worker's last job for nothing
        warm_target=0,
        base_seed=spec.seed,
        heartbeat_interval=heartbeat_interval,
        metrics_interval=None,
        # an unbounded event sink: a journal segment is never dropped
        watch_buffer=0,
    )
    sink, _ = daemon.subscribe()
    journal_root = Path(journal_dir) if journal_dir is not None else None
    if journal_root is not None:
        journal_root.mkdir(parents=True, exist_ok=True)
    writers: Dict[str, Journal] = {}
    daemon.start(guests=list(configs.values()))
    try:
        queued = [daemon.submit(job.to_dict()) for job in spec.jobs]
        running = {qjob.id for qjob in queued}
        while running:
            event = sink.get()
            kind = event["type"]
            if event.get("id") not in running or kind not in _JOB_EVENTS:
                continue
            name = event["job"]
            if kind == "journal" and journal_root is not None:
                writer = writers.get(name)
                if writer is None:
                    writer = writers[name] = Journal(
                        journal_root / f"{name.replace('/', '_')}.jsonl",
                        meta={"job": name, "spec": spec.name},
                    )
                writer.extend(event["records"], event["dropped"])
            elif kind == "done":
                running.discard(event["id"])
                if name in writers:
                    writers[name].close()
            if on_message is not None:
                on_message(event)
    finally:
        # every job has finished unless the loop raised; then only the
        # running jobs finish, and the queued ones are dropped
        daemon.shutdown(drain=False)
        for writer in writers.values():
            writer.close()
    stats = daemon.stats()
    variant_jobs = Counter(job.guest_config().digest() for job in spec.jobs)
    return FleetReport(
        spec_name=spec.name,
        workers=spec.workers,
        mode="processes",
        results=[_row(qjob) for qjob in queued],
        telemetry=stats["jobs_telemetry"],
        wall_seconds=time.perf_counter() - started,
        forked=sum(v["hits"] + v["misses"] for v in stats["pool"].values()),
        base_frames=daemon.pool.frame_count(),
        variants={
            digest[:12]: {"label": configs[digest].label(), "jobs": count}
            for digest, count in sorted(variant_jobs.items())
        },
        journal_paths={name: str(writers[name].path) for name in sorted(writers)},
    )
