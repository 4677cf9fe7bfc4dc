"""Fleet job execution: the offline phase and the per-clone online phase.

:func:`prepare_offline_phase` runs FACE-CHANGE's offline workflow once
per application -- profile the workload, then run the *clean* workload
under its own view to record the benign-recovery reference (paper
§III-B3) -- and persists both into a :class:`ProfileLibrary`.  Every
fleet run afterwards is pure online phase: :func:`execute_job` takes a
freshly forked clone, loads the library profile (zero re-profiling),
launches the job's workload (optionally malware-infected) with its
deterministic seed, and returns scores + telemetry.

Because clones are bit-identical to freshly booted machines and seeds
are derived deterministically, a job's virtual-cycle score is the same
whether it ran in a fleet worker or alone on a dedicated machine --
the ``fleet`` scenario of ``benchmarks/gates.py`` enforces exactly that.

:func:`run_job_on_clone` is the job side of the serve daemon's worker
processes, which run every fleet and every daemon job.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.apps.base import launch
from repro.apps.catalog import APP_CATALOG
from repro.core.facechange import FaceChange
from repro.core.profiler import Profiler
from repro.core.provenance import DEFAULT_BENIGN_RECOVERIES
from repro.fleet.library import ProfileLibrary, ProfileLibraryError, ProfileRecord
from repro.fleet.spec import DEFAULT_SEED, FleetJob
from repro.guest.config import KVM_PVCLOCK, QEMU_TSC, GuestConfig, resolve_guest
from repro.guest.machine import Machine, boot_machine
from repro.telemetry.export import snapshot as telemetry_snapshot

#: Capacity of a job's in-memory journal between segment drains.
_JOURNAL_CAPACITY = 4096


class JobAborted(Exception):
    """Raised from a progress check to stop a running job.

    ``reason`` is ``"cancelled"``, ``"tenant-budget"`` or ``"timeout"``
    (the job's wall-clock ``timeout``, counted from when it started), or
    ``"crashed"`` when the process running it died; ``consumed_cycles``
    is charged against the tenant either way.  ``detail`` overrides the
    reason's standard error text.
    """

    def __init__(self, reason: str, consumed_cycles: int, detail: str = "") -> None:
        super().__init__(reason)
        self.reason = reason
        self.consumed_cycles = consumed_cycles
        self.detail = detail


@dataclass
class JobResult:
    """Outcome of one fleet job on one guest."""

    name: str
    app: str
    ok: bool
    attack: Optional[str] = None
    seed: int = 0
    #: absolute virtual clock at job end (bit-identity score, part 1)
    cycles: int = 0
    #: kernel syscalls executed since boot (bit-identity score, part 2)
    syscalls: int = 0
    #: virtual cycles consumed by the job itself
    job_cycles: int = 0
    #: anomalous recoveries after baseline subtraction (attack evidence)
    evidence: List[str] = field(default_factory=list)
    #: True when the job carried an attack and evidence surfaced
    detected: Optional[bool] = None
    error: str = ""
    wall_seconds: float = 0.0
    #: the guest's full telemetry registry snapshot (merge-ready)
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @property
    def score(self) -> tuple:
        """The pair that must be bit-identical across fleet/solo runs."""
        return (self.cycles, self.syscalls)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "app": self.app,
            "attack": self.attack,
            "ok": self.ok,
            "seed": self.seed,
            "cycles": self.cycles,
            "syscalls": self.syscalls,
            "job_cycles": self.job_cycles,
            "evidence": self.evidence,
            "detected": self.detected,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
        }


def execute_job(
    machine: Machine,
    job: FleetJob,
    record: ProfileRecord,
    base_seed: int = DEFAULT_SEED,
    progress: Optional[Callable[[Machine, FaceChange], None]] = None,
) -> JobResult:
    """Run one fleet job on ``machine`` (a fresh boot or a fork).

    Attaches FACE-CHANGE, loads the library profile, launches the
    (possibly infected) workload with the job's derived seed, runs to
    completion within the job's cycle budget, and reports scores,
    attack evidence and the guest's telemetry snapshot.

    ``progress`` (if given) is invoked between run steps -- a serve
    worker's heartbeat and progress-check hook.  It observes the guest
    (virtual clock, telemetry) but must not mutate it; the run loop's
    cadence and the guest's virtual time are identical with or without
    it.
    """
    assert machine.runtime is not None
    if record.guest_digest and record.guest_digest != machine.build_digest:
        raise ProfileLibraryError(
            f"profile for {job.app!r} is pinned to guest build "
            f"{record.guest_digest[:12]} but the machine was built from "
            f"{machine.config.label()} (build digest "
            f"{machine.build_digest[:12]}); profiles do not transfer "
            "across kernel builds"
        )
    seed = job.effective_seed(base_seed)
    started = time.perf_counter()
    start_cycles = machine.cycles

    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(record.config, comm=job.app)
    # verdict classification uses the app's profiled baseline, so a
    # library-covered recovery counts as benign, not anomalous
    fc.recovery.benign_reference = tuple(
        sorted(set(record.baseline) | set(DEFAULT_BENIGN_RECOVERIES))
    )

    if job.attack is not None:
        from repro.malware import ALL_ATTACKS

        attack = next(a for a in ALL_ATTACKS if a.name == job.attack)
        handle = attack.launch(machine, scale=job.scale, seed=seed)
    else:
        handle = launch(
            machine, job.app, APP_CATALOG[job.app], scale=job.scale, seed=seed
        )
    if progress is None:
        until = lambda: handle.finished  # noqa: E731
    else:
        def until() -> bool:
            progress(machine, fc)
            return handle.finished
    machine.run(
        until=until,
        max_cycles=start_cycles + job.max_cycles,
        step_budget=50_000,
    )

    benign = set(record.baseline) | set(DEFAULT_BENIGN_RECOVERIES)
    events = fc.log.anomalous(benign=tuple(benign))
    evidence = sorted({e.function_name for e in events})
    unknown = any(e.has_unknown_frames for e in fc.log.events)

    result = JobResult(
        name=job.name or job.identity(),
        app=job.app,
        attack=job.attack,
        ok=handle.finished,
        seed=seed,
        cycles=machine.cycles,
        syscalls=machine.runtime.syscalls_executed,
        job_cycles=machine.cycles - start_cycles,
        evidence=evidence,
        detected=(bool(evidence) or unknown) if job.attack else None,
        error="" if handle.finished else "cycle budget exhausted before workload finished",
        wall_seconds=time.perf_counter() - started,
        telemetry=telemetry_snapshot(machine.telemetry),
    )
    return result


def run_job_on_fresh_machine(
    job: FleetJob,
    record: ProfileRecord,
    base_seed: int = DEFAULT_SEED,
) -> JobResult:
    """Boot a dedicated machine and run ``job`` on it (no forking).

    The solo reference path: the benchmark compares its scores against
    fleet clones' to prove bit-identity.
    """
    machine = boot_machine(config=job.guest)
    try:
        return execute_job(machine, job, record, base_seed=base_seed)
    finally:
        machine.close()


def _observe(machine: Machine) -> Dict[str, Any]:
    """Cheap read-only stats for a heartbeat message."""
    tel = machine.telemetry
    recoveries = tel.counters.get("recovery.recoveries")
    verdicts = tel.labelled.get("recovery.verdicts")
    return {
        "cycles": machine.cycles,
        "recoveries": recoveries.value if recoveries is not None else 0,
        "verdicts": (
            {str(label): n for label, n in verdicts.values.items()}
            if verdicts is not None
            else {}
        ),
    }


def run_job_on_clone(
    acquire: Callable[[], Machine],
    job: FleetJob,
    record: ProfileRecord,
    send: Callable[[Dict[str, Any]], None],
    check: Callable[[int], None],
    base_seed: int = DEFAULT_SEED,
    heartbeat_interval: float = 0.5,
    journal_meta: Optional[Dict[str, Any]] = None,
    execute: Callable[..., JobResult] = execute_job,
) -> JobResult:
    """One job on a clone from ``acquire()``: a serve worker's job side.

    The job streams ``heartbeat`` and ``journal`` messages to ``send``
    while it runs (heartbeats at most every ``heartbeat_interval``
    wall-clock seconds, each followed by the journal segment recorded
    since the last, and a last segment at the end); the guest's virtual
    time is untouched.  ``check(consumed_cycles)`` runs at every
    progress step and may raise :class:`JobAborted`, which propagates
    after the final journal segment.  Any other exception -- a crashed
    guest, a broken driver -- becomes a failure result, so one bad job
    never takes its executor down.  The clone is closed on every path.
    ``execute`` is the caller's own reference to :func:`execute_job`, so
    a wrapper installed on the caller's module applies.
    """
    name = job.name or job.identity()
    clone = None
    journal = None

    def ship_segment() -> None:
        if journal is None:
            return
        records, dropped = journal.drain_segment()
        if records or dropped:
            send({"type": "journal", "job": name, "records": records, "dropped": dropped})

    try:
        clone = acquire()
        journal = clone.start_recording(
            capacity=_JOURNAL_CAPACITY, meta=journal_meta
        )
        start_cycles = clone.cycles
        last_beat = time.monotonic()

        def progress(machine, fc) -> None:
            nonlocal last_beat
            check(machine.cycles - start_cycles)
            now = time.monotonic()
            if now - last_beat < heartbeat_interval:
                return
            last_beat = now
            send({"type": "heartbeat", "job": name, **_observe(machine)})
            ship_segment()

        result = execute(clone, job, record, base_seed=base_seed, progress=progress)
        ship_segment()
        return result
    except JobAborted:
        ship_segment()
        raise
    except Exception as exc:  # noqa: BLE001 - crash isolation boundary
        result = JobResult(
            name=name,
            app=job.app,
            attack=job.attack,
            ok=False,
            seed=job.effective_seed(base_seed),
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}",
        )
        ship_segment()
        return result
    finally:
        if clone is not None:
            if journal is not None:
                clone.stop_recording()
            clone.close()


def profile_app_offline(
    app: str,
    scale: int = 4,
    max_cycles: int = 40_000_000_000,
    guest: "GuestConfig | str | dict | None" = None,
) -> ProfileRecord:
    """One application's complete offline phase, in memory.

    1. a profiling session (qemu-tsc platform, like the paper's) yields
       the kernel-view configuration;
    2. a *clean* run of the same workload under its new view, on the
       kvm-pvclock runtime platform, records the benign-recovery
       reference (paper §III-B3).

    Both machines are built from ``guest`` (default build when omitted);
    the returned record is pinned to the guest's *build* digest, which
    both platforms share.
    """
    if app not in APP_CATALOG:
        raise KeyError(
            f"unknown application {app!r} "
            f"(available: {', '.join(sorted(APP_CATALOG))})"
        )
    guest_config = resolve_guest(guest)
    machine = boot_machine(config=guest_config.with_platform(QEMU_TSC))
    profiler = Profiler(machine)
    try:
        profiler.track(app)
        profiler.install()
        handle = launch(machine, app, APP_CATALOG[app], scale=scale)
        handle.run_to_completion(max_cycles=max_cycles)
        if not handle.finished:
            raise RuntimeError(f"profiling workload for {app!r} did not finish")
        config = profiler.export(app)
    finally:
        profiler.uninstall()
        machine.close()
    clean = boot_machine(config=guest_config.with_platform(KVM_PVCLOCK))
    try:
        fc = FaceChange(clean)
        fc.enable()
        fc.load_view(config, comm=app)
        clean_handle = launch(clean, app, APP_CATALOG[app], scale=scale)
        clean.run(
            until=lambda: clean_handle.finished,
            max_cycles=max_cycles,
            step_budget=50_000,
        )
        baseline = sorted({e.function_name for e in fc.log.events})
    finally:
        clean.close()
    return ProfileRecord(
        config=config,
        baseline=baseline,
        meta={
            "scale": scale,
            "max_cycles": max_cycles,
            "guest": guest_config.label(),
        },
        guest_digest=guest_config.build_digest(),
    )


def prepare_offline_phase(
    library: ProfileLibrary,
    apps: List[str],
    scale: int = 4,
    max_cycles: int = 40_000_000_000,
    force: bool = False,
    guest: "GuestConfig | str | dict | None" = None,
) -> Dict[str, ProfileRecord]:
    """Profile ``apps`` on ``guest`` and persist records (pinned).

    Applications already profiled *on this guest build* are reused
    unless ``force``; the whole point is that this phase runs once per
    (application, kernel build), ever.  Legacy unpinned records are
    reused for any build (with the library's load-time warning).
    """
    guest_config = resolve_guest(guest)
    build = guest_config.build_digest()
    records: Dict[str, ProfileRecord] = {}
    for app in apps:
        if not force:
            if library.digest_of(app, build) is not None:
                records[app] = library.get(app, build)
                continue
            if library.has(app):
                current = library.get(app)
                if not current.guest_digest:
                    # legacy unpinned record: serve as-is
                    records[app] = current
                    continue
                # pinned to a different build: profile this one too
        record = profile_app_offline(
            app, scale=scale, max_cycles=max_cycles, guest=guest_config
        )
        records[app] = library.put(
            record.config,
            baseline=record.baseline,
            meta=record.meta,
            guest_digest=record.guest_digest,
        )
    return records


def run_job_cold(
    job_data: Dict[str, Any], base_seed: int = DEFAULT_SEED
) -> Dict[str, Any]:
    """The pre-fleet status quo, end to end in the calling process.

    Profile the application, record its benign baseline, boot a
    dedicated machine and run the job -- everything the repro used to
    redo for every single run.  The throughput benchmark executes this
    in one fresh subprocess per job (cold interpreter, cold caches) as
    its 1-worker baseline, and uses the returned scores as the solo
    reference for the fleet's bit-identity check.
    """
    job = FleetJob(**job_data)
    record = profile_app_offline(job.app, scale=job.scale, guest=job.guest)
    result = run_job_on_fresh_machine(job, record, base_seed=base_seed)
    data = result.to_dict()
    return data
