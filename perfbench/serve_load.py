"""The serve workloads: closed-loop callers against a real daemon.

Each session spawns ``repro serve`` through ``launcher.py`` with a fresh
profile library and the workload's fixed worker pool, reads readiness
from the daemon's ``serve: pid ... listening`` line, runs one warm-up
job per mix entry, then keeps the workload's callers busy -- each
submits a job and waits for its result before submitting the next, as
callers of ``ctl submit`` / ``ctl result --wait`` do -- for the session's
share of the run.  Set-up time runs from the spawn to the end of the
warm-up.

Minimum and maximum workers are equal, so the supervisor never resizes
the pool mid-run.  Every job carries an explicit seed drawn from the
workload seed; its ``(cycles, syscalls)`` score is compared with
``run_job_on_fresh_machine`` on the same profile record and seed,
computed in this process, never by the daemon under test.
"""

from __future__ import annotations

import os
import queue
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: applications profiled into each session's empty library
APPS = ("top", "gzip", "bash", "tcpdump")
#: guest variants each daemon keeps warm pools for
GUESTS = ("default", "qemu-tsc")
#: distinct seeds drawn per mix entry; bounds the reference runs
SEEDS_PER_ENTRY = 2
READY_TIMEOUT = 150.0
JOB_TIMEOUT = 120.0
#: seconds a session may run past its share to reach its job counts
EXTEND_LIMIT = 60.0
#: measured jobs after which a daemon's peak RSS is read; every session
#: runs at least this many (about 5 s on the slowest host speed seen)
RSS_JOBS = 30


@dataclass(frozen=True)
class Entry:
    app: str
    attack: Optional[str] = None
    guest: Optional[str] = None

    @property
    def label(self) -> str:
        attack = f"+{self.attack}" if self.attack else ""
        guest = f"@{self.guest}" if self.guest else ""
        return f"{self.app}{attack}{guest}"


@dataclass(frozen=True)
class Mix:
    """One serve workload: job scale, callers, the fixed worker pool,
    whether the observability archive is on, and the job mix."""

    scale: int
    callers: int
    workers: int
    archive: bool
    entries: Tuple[Entry, ...]


MIXES: Dict[str, Mix] = {
    # one caller, short jobs, attacks, archive on: per-job fixed costs
    # (re-translation on a fresh fork, view build, fork, recovery,
    # archive writes) dominate and queue wait is about 0
    "serve-latency": Mix(
        scale=1,
        callers=1,
        workers=1,
        archive=True,
        entries=(
            Entry("top"),
            Entry("gzip"),
            Entry("bash"),
            Entry("tcpdump"),
            Entry("top", attack="Injectso"),
            Entry("bash", attack="KBeast"),
            Entry("top", guest="qemu-tsc"),
            Entry("gzip", guest="qemu-tsc"),
        ),
    ),
    # two callers, longer benign jobs, two workers, no archive: two jobs
    # always in flight and guest execution about half of each job, so it
    # shows what the second worker buys, and queue wait and transport
    # under contention; attack recovery and the archive are bypassed
    "serve-throughput": Mix(
        scale=8,
        callers=2,
        workers=2,
        archive=False,
        entries=(
            Entry("top"),
            Entry("gzip"),
            Entry("bash"),
            Entry("tcpdump"),
            Entry("top", guest="qemu-tsc"),
            Entry("gzip", guest="qemu-tsc"),
        ),
    ),
}


@dataclass(frozen=True)
class JobSpec:
    entry: Entry
    seed: int


def job_specs(mix: Mix, seed: int) -> List[JobSpec]:
    """The workload's distinct jobs: each entry with its drawn seeds."""
    rng = random.Random(seed)
    return [
        JobSpec(entry, rng.getrandbits(31))
        for entry in mix.entries
        for _ in range(SEEDS_PER_ENTRY)
    ]


def job_sequence(specs: Sequence[JobSpec], seed: int) -> Iterator[JobSpec]:
    """Endless submission order: seeded shuffles of ``specs``."""
    rng = random.Random(seed ^ 0x5EED)
    while True:
        order = list(specs)
        rng.shuffle(order)
        yield from order


@dataclass
class JobRecord:
    """One submitted job as the client saw it."""

    spec: JobSpec
    name: str
    latency_s: float = 0.0
    sent_at: float = 0.0
    received_at: float = 0.0
    job: Dict[str, Any] = field(default_factory=dict)
    result: Optional[Dict[str, Any]] = None
    error: str = ""

    @property
    def queue_wait_s(self) -> float:
        return self.job["started_at"] - self.job["submitted_at"]

    @property
    def service_s(self) -> float:
        return self.job["finished_at"] - self.job["started_at"]

    @property
    def transport_s(self) -> float:
        """Client-observed time outside the daemon's job lifecycle."""
        inside = self.job["finished_at"] - self.job["submitted_at"]
        return (self.received_at - self.sent_at) - inside


def run_job(client, spec: JobSpec, scale: int, name: str) -> JobRecord:
    """Submit one job and wait for its result (a closed-loop request)."""
    from repro.serve.client import ServeClientError

    record = JobRecord(spec=spec, name=name)
    entry = spec.entry
    record.sent_at = time.time()
    started = time.perf_counter()
    try:
        job_id = client.submit(
            entry.app,
            scale=scale,
            attack=entry.attack,
            guest=entry.guest,
            name=name,
            seed=spec.seed,
        )["id"]
        response = client.result(job_id, wait=True, timeout=JOB_TIMEOUT)
    except ServeClientError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    record.latency_s = time.perf_counter() - started
    record.received_at = time.time()
    record.job = response["job"]
    record.result = response.get("result")
    if record.job.get("state") != "done":
        record.error = f"job ended {record.job.get('state')}: {record.job.get('error', '')}"
    return record


@dataclass
class Session:
    """One daemon's life: set-up, measured jobs and what it reported."""

    workdir: Path
    spawn_ns: int = 0
    ready_ns: int = 0
    start_ns: int = 0
    end_ns: int = 0
    warmup: List[JobRecord] = field(default_factory=list)
    jobs: List[JobRecord] = field(default_factory=list)
    peak_rss_kb: int = 0
    stats: List[Dict[str, Any]] = field(default_factory=list)
    spans: Optional[Path] = None

    @property
    def library(self) -> Path:
        return self.workdir / "library"

    @property
    def setup_s(self) -> float:
        return (self.ready_ns - self.spawn_ns) / 1e9

    @property
    def measured_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _daemon_argv(mix: Mix, session: Session) -> List[str]:
    argv = [sys.executable, "perfbench/launcher.py"]
    if session.spans is not None:
        argv += ["--spans", str(session.spans)]
    argv += [
        "--",
        "--scale", "2",
        "serve",
        "--socket", str(session.workdir / "serve.sock"),
        "--library", str(session.library),
        "--apps", *APPS,
        "--guests", *GUESTS,
        "--min-workers", str(mix.workers),
        "--max-workers", str(mix.workers),
    ]
    if mix.archive:
        argv += ["--obs-dir", str(session.workdir / "obs")]
    return argv


def _read_lines(stream, lines: "queue.Queue[str]") -> None:
    for line in stream:
        lines.put(line)
    lines.put("")


def _wait_listening(lines: "queue.Queue[str]", deadline: float) -> None:
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise RuntimeError("serve daemon did not report listening in time") from None
        if not line:
            raise RuntimeError("serve daemon exited before listening")
        if line.startswith("serve: pid ") and " listening on " in line:
            return


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_session(
    mix: Mix,
    specs: Sequence[JobSpec],
    sequence: Iterator[JobSpec],
    session: Session,
    seconds: float,
    min_ok: int,
    tag: str,
) -> None:
    """Spawn a daemon, warm it up, drive it for ``seconds`` (longer if
    its job counts fall short: see :func:`_closed_loop`), then shut it
    down and wait for it to exit; everything it measured lands in
    ``session``."""
    from repro.serve.client import ServeClient

    session.workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH="src")
    lines: "queue.Queue[str]" = queue.Queue()
    with open(session.workdir / "daemon.err", "w") as err:
        session.spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(
            _daemon_argv(mix, session),
            env=env,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        reader = threading.Thread(target=_read_lines, args=(proc.stdout, lines), daemon=True)
        reader.start()
        try:
            try:
                _wait_listening(lines, time.monotonic() + READY_TIMEOUT)
            except RuntimeError as exc:
                err.flush()
                tail = (session.workdir / "daemon.err").read_text()[-2000:]
                raise RuntimeError(f"{exc}:\n{tail}") from None
            client = ServeClient(str(session.workdir / "serve.sock"), timeout=60.0)
            first = {}
            for spec in specs:
                first.setdefault(spec.entry, spec)
            for i, spec in enumerate(first.values()):
                name = f"{tag}-warm{i:02d}-{spec.entry.label}"
                session.warmup.append(run_job(client, spec, mix.scale, name))
            session.ready_ns = time.perf_counter_ns()
            if session.spans is not None:
                session.stats.append(client.stats())
            session.start_ns = time.perf_counter_ns()
            session.jobs, session.peak_rss_kb = _closed_loop(client, mix, sequence, seconds, min_ok, tag, proc.pid)
            session.end_ns = time.perf_counter_ns()
            if session.spans is not None:
                session.stats.append(client.stats())
            client.shutdown(drain=True, timeout=60.0)
            proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join(timeout=10.0)
            proc.stdout.close()


def _closed_loop(
    client, mix: Mix, sequence: Iterator[JobSpec], seconds: float, min_ok: int, tag: str, pid: int
) -> Tuple[List[JobRecord], int]:
    """Keep each of the workload's callers submitting a job and waiting
    for its result: until ``seconds`` have passed, ``min_ok`` jobs have
    succeeded and :data:`RSS_JOBS` jobs have run, but for at most
    :data:`EXTEND_LIMIT` seconds past ``seconds``.  Returns the jobs and
    the daemon's peak RSS after the first :data:`RSS_JOBS` of them: read
    at a fixed job count, so a daemon that serves more jobs in the time
    is not charged for their records."""
    lock = threading.Lock()
    records: List[JobRecord] = []
    deadline = time.perf_counter() + seconds
    issued = 0
    succeeded = 0
    peak_rss_kb = 0
    crashed: List[BaseException] = []

    def caller() -> None:
        try:
            calls()
        except BaseException as exc:  # re-raised by the thread that waits
            crashed.append(exc)

    def calls() -> None:
        nonlocal issued, succeeded, peak_rss_kb
        while True:
            with lock:
                now = time.perf_counter()
                if now >= deadline + EXTEND_LIMIT or (
                    now >= deadline and succeeded >= min_ok and len(records) >= RSS_JOBS
                ):
                    return
                spec = next(sequence)
                index = issued
                issued += 1
            record = run_job(client, spec, mix.scale, f"{tag}-{index:04d}-{spec.entry.label}")
            with lock:
                records.append(record)
                succeeded += not record.error
                if len(records) == RSS_JOBS:
                    peak_rss_kb = _peak_rss_kb(pid)

    callers = [threading.Thread(target=caller, name=f"caller-{i}") for i in range(mix.callers)]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join()
    if crashed:
        raise crashed[0]
    return records, peak_rss_kb or _peak_rss_kb(pid)


class References:
    """In-process reference scores, one fresh-machine run per distinct
    (profile record, job)."""

    def __init__(self, scale: int) -> None:
        self.scale = scale
        self._scores: Dict[Tuple[str, JobSpec], Tuple[bool, int, int]] = {}

    def score(self, library: Path, spec: JobSpec) -> Tuple[bool, int, int]:
        from repro.fleet import FleetJob, ProfileLibrary
        from repro.fleet.jobs import run_job_on_fresh_machine
        from repro.guest.config import resolve_guest

        entry = spec.entry
        guest = resolve_guest(entry.guest) if entry.guest else None
        build = (guest or resolve_guest(None)).build_digest()
        lib = ProfileLibrary(library)
        key = (lib.digest_of(entry.app, build) or "", spec)
        if key not in self._scores:
            job = FleetJob(
                app=entry.app,
                scale=self.scale,
                attack=entry.attack,
                seed=spec.seed,
                guest=guest,
            )
            result = run_job_on_fresh_machine(job, lib.get(entry.app, build))
            self._scores[key] = (result.ok, result.cycles, result.syscalls)
        return self._scores[key]

    def check(self, library: Path, record: JobRecord) -> str:
        """Why ``record`` fails, or ``""`` when its score matches."""
        if record.error:
            return f"{record.name}: {record.error}"
        result = record.result or {}
        ok, cycles, syscalls = self.score(library, record.spec)
        if not ok:
            return f"{record.name}: reference run did not finish"
        got = (result.get("ok"), result.get("cycles"), result.get("syscalls"))
        if got != (True, cycles, syscalls):
            return f"{record.name}: score {got[1:]} != reference {(cycles, syscalls)}"
        return ""
