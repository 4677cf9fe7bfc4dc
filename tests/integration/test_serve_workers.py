"""Serve worker processes: crash, cancel, shutdown and daemon-death outcomes.

Each test runs real worker processes and checks one defined host-side
outcome (the rows of SERVICE.md's "Job outcomes on the process path"):
a SIGKILLed worker fails exactly its job, a worker that falls silent is
killed and replaced, jobs that no worker can run once the spawner is
gone fail by name, a spawner that dies before a scale-up leaves the
supervisor and the surviving workers serving, an idle extra worker is
retired and reaped, a cancelled running job is charged what it
consumed, a shutdown or a SIGKILLed daemon leaves no worker or spawner
behind, and one app's offline profile never stalls another app's jobs.
Some tests patch :func:`repro.serve.daemon.execute_job` before
``start()`` so that the workers hold or wedge a job on cue.
"""

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fleet import ProfileLibrary, prepare_offline_phase
from repro.fleet.jobs import execute_job, run_job_on_fresh_machine
from repro.fleet.spec import FleetJob
from repro.serve import ServeClient, ServeDaemon

ROOT = Path(__file__).resolve().parents[2]

#: attempts at catching a job mid-run before it finishes on its own
_ATTEMPTS = 3


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    lib = ProfileLibrary(tmp_path_factory.mktemp("workers-lib"))
    prepare_offline_phase(lib, ["top", "bash"], scale=1)
    return lib


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        # gone before the open, or reaped between the open and the read
        return False


def _mid_run(sink, job_id):
    """Wait for ``job_id``'s second heartbeat (the first can come before
    the guest's first step); False if the job finished first."""
    beats = 0
    while beats < 2:
        event = sink.get(timeout=60.0)
        if event.get("id") != job_id:
            continue
        if event["type"] in ("done", "cancelled"):
            return False
        beats += event["type"] == "heartbeat"
    return True


def _charged(daemon):
    tenants = daemon.queue.describe()["tenants"]
    return tenants.get("default", {}).get("charged_cycles", 0)


def _held(release):
    """An ``execute_job`` that holds each job, still checking for cancel,
    budget and timeout, until ``release`` exists, then runs it."""

    def held(machine, job, record, base_seed=0, progress=None):
        while not release.exists():
            progress(machine, None)
            time.sleep(0.005)
        return execute_job(
            machine, job, record, base_seed=base_seed, progress=progress
        )

    return held


def _busy_daemon(library):
    daemon = ServeDaemon(
        library, min_workers=1, max_workers=1, warm_target=1,
        heartbeat_interval=0.005,
    )
    daemon.start()
    return daemon


def test_sigkilled_worker_fails_its_job_and_the_daemon_keeps_serving(library):
    daemon = _busy_daemon(library)
    sink, _ = daemon.subscribe()
    try:
        for _ in range(_ATTEMPTS):
            before = _charged(daemon)
            qjob = daemon.submit({"app": "bash", "scale": 8})
            if not _mid_run(sink, qjob.id):
                continue
            (pid,) = daemon.stats()["workers"]["pids"]
            os.kill(pid, signal.SIGKILL)
            done = daemon.queue.wait_terminal(qjob.id, timeout=60.0)
            if done.state == "failed":
                break
        assert done.state == "failed", done.state
        assert done.error == (
            f"WorkerCrashed: worker pid {pid} was killed by SIGKILL "
            "while running the job"
        )
        # charged the cycles its last heartbeat reported
        assert _charged(daemon) > before

        after = daemon.submit({"app": "top", "scale": 8, "seed": 7})
        done = daemon.queue.wait_terminal(after.id, timeout=60.0)
        assert done.state == "done", done.error
        reference = run_job_on_fresh_machine(
            FleetJob(app="top", scale=8, seed=7), library.get("top")
        )
        assert (done.result["cycles"], done.result["syscalls"]) == (
            reference.cycles, reference.syscalls,
        )
        (replacement,) = daemon.stats()["workers"]["pids"]
        assert replacement != pid
        assert not _running(pid)
    finally:
        daemon.unsubscribe(sink)
        daemon.shutdown(timeout=30.0)


def test_cancel_of_a_running_real_job_charges_what_it_consumed(library):
    full = run_job_on_fresh_machine(
        FleetJob(app="bash", scale=8, seed=3), library.get("bash")
    ).job_cycles
    daemon = _busy_daemon(library)
    sink, _ = daemon.subscribe()
    try:
        for _ in range(_ATTEMPTS):
            before = _charged(daemon)
            qjob = daemon.submit({"app": "bash", "scale": 8, "seed": 3})
            if not _mid_run(sink, qjob.id):
                continue
            try:
                assert daemon.queue.cancel(qjob.id) == "cancel-requested"
            except ValueError:
                continue  # finished meanwhile
            done = daemon.queue.wait_terminal(qjob.id, timeout=60.0)
            if done.state == "cancelled":
                break
        assert done.state == "cancelled", done.state
        assert done.error == "cancelled while running"
        assert 0 < _charged(daemon) - before < full
    finally:
        daemon.unsubscribe(sink)
        daemon.shutdown(timeout=30.0)


def test_jobs_fail_by_name_once_the_spawner_is_gone(library, monkeypatch):
    """A worker that dies after its spawner did cannot be replaced: its
    job and every later one fail with the cause named, and none waits
    in the queue for a worker that never comes."""
    import repro.serve.daemon as daemon_mod

    def doomed(machine, job, record, base_seed=0, progress=None):
        os.kill(os.getppid(), signal.SIGKILL)  # the worker's spawner
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(daemon_mod, "execute_job", doomed)
    daemon = ServeDaemon(library, min_workers=1, max_workers=1, warm_target=0)
    daemon.start()
    try:
        queued = [daemon.submit({"app": "top", "scale": 1}) for _ in range(3)]
        done = [daemon.queue.wait_terminal(q.id, timeout=60.0) for q in queued]
        assert [d.state if d else None for d in done] == ["failed"] * 3
        assert re.fullmatch(
            r"WorkerCrashed: worker pid \d+ exited \(status unknown\) "
            r"while running the job",
            done[0].error,
        )
        for later in done[1:]:
            assert later.error == (
                "WorkerCrashed: the worker spawner has exited, so no "
                "worker process can run the job"
            )
        kinds = [e["type"] for e in daemon._events]
        assert kinds.count("serve-spawner-exited") == 1
        workers = daemon.stats()["workers"]
        assert workers["spawner"] is None and workers["alive"] == 0
    finally:
        daemon.shutdown(timeout=30.0)


def test_silent_worker_is_killed_charged_and_replaced(library, monkeypatch):
    """A worker that stops reporting mid-job is SIGKILLed once it has
    been silent for the job's timeout plus the grace; the job is charged
    its last heartbeat's cycles and a replacement runs the next job."""
    import repro.serve.daemon as daemon_mod

    def wedged(machine, job, record, base_seed=0, progress=None):
        if job.app != "bash":
            return execute_job(
                machine, job, record, base_seed=base_seed, progress=progress
            )
        machine.vcpu.cycles += 77
        time.sleep(0.05)
        progress(machine, None)  # the last heartbeat: 77 cycles consumed
        time.sleep(3600)

    monkeypatch.setattr(daemon_mod, "execute_job", wedged)
    monkeypatch.setattr(daemon_mod, "_WORKER_GRACE_SECONDS", 0.2)
    daemon = ServeDaemon(
        library, min_workers=1, max_workers=1, warm_target=0,
        heartbeat_interval=0.01,
    )
    daemon.start()
    try:
        (pid,) = daemon.stats()["workers"]["pids"]
        qjob = daemon.submit({"app": "bash", "scale": 1, "timeout": 0.3})
        done = daemon.queue.wait_terminal(qjob.id, timeout=30.0)
        assert done.state == "failed"
        assert re.fullmatch(
            rf"TimeoutError: worker pid {pid} sent nothing for \d+\.\ds "
            r"and was killed by SIGKILL",
            done.error,
        ), done.error
        assert any(
            e["type"] == "heartbeat" and e["id"] == qjob.id
            for e in daemon._events
        )
        assert _charged(daemon) == 77
        after = daemon.submit({"app": "top", "scale": 1})
        done = daemon.queue.wait_terminal(after.id, timeout=60.0)
        assert done.state == "done", done.error
        (replacement,) = daemon.stats()["workers"]["pids"]
        assert replacement != pid
        assert not _running(pid)
    finally:
        daemon.shutdown(timeout=30.0)


def test_wedged_worker_is_killed_after_its_spawner_has_exited(
    library, monkeypatch, tmp_path
):
    """SIGKILL the spawner, then wedge its worker mid-job: the daemon
    kills the worker through its pidfd and names that kill, the worker
    has stopped before ``shutdown()`` returns, and the daemon -- with
    socket, metrics listener, archive and ops journal on -- leaves the
    process's descriptors as it found them."""
    import repro.serve.daemon as daemon_mod

    def wedged(machine, job, record, base_seed=0, progress=None):
        progress(machine, None)
        time.sleep(15)

    monkeypatch.setattr(daemon_mod, "execute_job", wedged)
    monkeypatch.setattr(daemon_mod, "_WORKER_GRACE_SECONDS", 0.2)
    fds = sorted(os.listdir("/proc/self/fd"))
    daemon = ServeDaemon(
        library, min_workers=1, max_workers=1, warm_target=0,
        socket_path=str(tmp_path / "d.sock"),
        metrics_interval=3600.0, metrics_addr="127.0.0.1:0",
        obs_dir=str(tmp_path / "obs"),
        ops_journal=str(tmp_path / "ops.journal"),
    )
    daemon.start()
    try:
        workers = daemon.stats()["workers"]
        (pid,) = workers["pids"]
        os.kill(workers["spawner"], signal.SIGKILL)
        qjob = daemon.submit({"app": "top", "scale": 1, "timeout": 0.3})
        done = daemon.queue.wait_terminal(qjob.id, timeout=30.0)
        assert done.state == "failed"
        assert re.fullmatch(
            rf"TimeoutError: worker pid {pid} sent nothing for \d+\.\ds "
            r"and was killed by SIGKILL through its pidfd",
            done.error,
        ), done.error
    finally:
        daemon.shutdown(timeout=30.0)
    assert not _running(pid)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_spawner_death_before_a_scale_up_keeps_the_daemon_serving(
    library, monkeypatch, tmp_path
):
    """SIGKILL the spawner of an idle daemon, then let six jobs ask for a
    second worker: the supervisor survives and starts no slot it cannot
    give a process, the dead spawner is named once, and every job ends
    done on the surviving worker."""
    import repro.serve.daemon as daemon_mod

    from repro.obs.store import read_archive

    release, obs = tmp_path / "release", tmp_path / "obs"
    monkeypatch.setattr(daemon_mod, "execute_job", _held(release))
    daemon = ServeDaemon(
        library, min_workers=1, max_workers=2, warm_target=0,
        obs_dir=str(obs),
    )
    daemon.start()

    def exits():
        return [e for e in daemon._events if e["type"] == "serve-spawner-exited"]

    try:
        workers = daemon.stats()["workers"]
        os.kill(workers["spawner"], signal.SIGKILL)
        queued = [daemon.submit({"app": "top", "scale": 1}) for _ in range(6)]
        _until(lambda: exits() or not daemon._supervisor.is_alive())
        release.touch()
        done = [daemon.queue.wait_terminal(q.id, timeout=60.0) for q in queued]
        assert [d.state if d else None for d in done] == ["done"] * 6
        assert daemon._supervisor.is_alive()
        assert [e["pid"] for e in exits()] == [workers["spawner"]]
        after = daemon.stats()["workers"]
        assert after["spawner"] is None
        assert after["alive"] == 1
        assert after["pids"] == workers["pids"]
    finally:
        release.touch()
        daemon.shutdown(timeout=30.0)
    archived = [e["event"]["type"] for e in read_archive(obs).events]
    assert archived.count("serve-spawner-exited") == 1


def test_idle_scale_down_retires_and_reaps_the_extra_worker(
    library, monkeypatch, tmp_path
):
    """Queue pressure grows the pool to two workers; once idle, slot 1
    retires and its process is stopped and reaped."""
    import repro.serve.daemon as daemon_mod

    release = tmp_path / "release"
    monkeypatch.setattr(daemon_mod, "execute_job", _held(release))
    daemon = ServeDaemon(library, min_workers=1, max_workers=2, warm_target=0)
    daemon.start()
    try:
        queued = [daemon.submit({"app": "top", "scale": 1}) for _ in range(3)]
        _until(lambda: daemon.worker_count() == 2)
        _, extra = daemon.stats()["workers"]["pids"]
        release.touch()
        for qjob in queued:
            done = daemon.queue.wait_terminal(qjob.id, timeout=60.0)
            assert done.state == "done", done.error
        _until(lambda: daemon.worker_count() == 1)
        assert list(daemon._workers) == [0]
        _until(lambda: not os.path.exists(f"/proc/{extra}"))
        assert daemon.telemetry.counter("serve.workers.retired").value == 1
        scaled = [e["workers"] for e in daemon._events if e["type"] == "scaled"]
        assert scaled == [2, 1]
    finally:
        release.touch()
        daemon.shutdown(timeout=30.0)


def test_late_cancel_and_budget_updates_do_not_reach_the_next_job(library):
    """A cancel or budget update can cross its job's result on the
    worker channel; the worker drops it and runs the next job."""
    daemon = ServeDaemon(library, min_workers=1, max_workers=1, warm_target=1)
    daemon.start()
    try:
        first = daemon.submit({"app": "top", "scale": 1})
        assert daemon.queue.wait_terminal(first.id, timeout=60.0).state == "done"
        (pid,) = daemon.stats()["workers"]["pids"]
        # what the slot thread sends when the cancel or the budget change
        # comes after the worker's last progress check
        conn = daemon._procs[0].conn
        conn.send(("cancel", None))
        conn.send(("budget", 0))
        second = daemon.submit({"app": "top", "scale": 1})
        done = daemon.queue.wait_terminal(second.id, timeout=60.0)
        assert done.state == "done", done.error
        assert daemon.stats()["workers"]["pids"] == [pid]
    finally:
        daemon.shutdown(timeout=30.0)


def _until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


def test_pool_counts_the_start_up_fill_once(library):
    """Every worker process inherits the start-up fill; the pool section
    and the serve.pool counters count it once, not once per worker."""
    daemon = ServeDaemon(library, min_workers=2, max_workers=2, warm_target=1)
    daemon.start()
    counts = ("warm", "forked", "hits", "misses", "refills")

    def pool():
        (entry,) = daemon.stats()["pool"].values()
        return [entry[key] for key in counts]

    try:
        _until(lambda: pool()[0] == 2)  # both workers have reported
        assert pool() == [2, 1, 0, 0, 1]
        qjob = daemon.submit({"app": "top", "scale": 1})
        assert daemon.queue.wait_terminal(qjob.id, timeout=60.0).state == "done"
        _until(lambda: pool()[4] == 2)  # the worker's refill after the job
        assert pool() == [2, 2, 1, 0, 2]
        # a replacement worker inherits the start-up fill as well
        pids = daemon.stats()["workers"]["pids"]
        os.kill(pids[0], signal.SIGKILL)
        _until(
            lambda: pids[0] not in daemon.stats()["workers"]["pids"]
            and len(daemon.stats()["workers"]["pids"]) == 2
            and pool()[0] == 2
        )
        assert pool() == [2, 2, 1, 0, 2]
        (label,) = daemon.stats()["pool"]
        refills = daemon.telemetry.labelled_counter("serve.pool.refills")
        assert refills.values == {label: 2}
    finally:
        daemon.shutdown(timeout=30.0)


def test_shutdown_reaps_every_worker_and_the_spawner(library):
    daemon = ServeDaemon(library, min_workers=2, max_workers=2, warm_target=1)
    daemon.start()
    try:
        qjob = daemon.submit({"app": "top", "scale": 1})
        assert daemon.queue.wait_terminal(qjob.id, timeout=60.0).state == "done"
        workers = daemon.stats()["workers"]
        pids = workers["pids"] + [workers["spawner"]]
        assert len(pids) == 3 and all(_running(pid) for pid in pids)
    finally:
        daemon.shutdown(timeout=30.0)
    assert [pid for pid in pids if os.path.exists(f"/proc/{pid}")] == []


def test_sigkilled_daemon_takes_its_spawner_and_workers_down(tmp_path):
    sock = tmp_path / "d.sock"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", str(sock), "--library", str(tmp_path / "lib"),
            "--min-workers", "2", "--max-workers", "2", "--warm", "1",
            "--metrics-interval", "0",
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        line = ""
        while "listening on" not in line and time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 1.0)
            if ready:
                line = proc.stdout.readline()
                if not line:
                    break
        assert "listening on" in line, "daemon did not start"
        workers = ServeClient(str(sock), timeout=30).stats()["workers"]
        pids = workers["pids"] + [workers["spawner"]]
        assert len(pids) == 3 and all(_running(pid) for pid in pids)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if _running(pid)] == []


def test_auto_profile_of_one_app_does_not_stall_other_jobs(
    library, monkeypatch
):
    import repro.serve.daemon as daemon_mod

    entered, release = threading.Event(), threading.Event()
    real = daemon_mod.prepare_offline_phase

    def blocking(lib, apps, **kwargs):
        if "gzip" in apps:
            entered.set()
            release.wait(60.0)
            raise RuntimeError("gzip profile abandoned")
        return real(lib, apps, **kwargs)

    monkeypatch.setattr(daemon_mod, "prepare_offline_phase", blocking)
    daemon = ServeDaemon(
        library, min_workers=2, max_workers=2, warm_target=0,
        auto_profile=True, profile_scale=1,
    )
    daemon.start()
    try:
        gzip = daemon.submit({"app": "gzip", "scale": 1})
        assert entered.wait(30.0)
        top = daemon.submit({"app": "top", "scale": 1})
        done = daemon.queue.wait_terminal(top.id, timeout=30.0)
        assert done is not None and done.state == "done"
        assert daemon.queue.get(gzip.id).state == "running"
    finally:
        release.set()
        daemon.shutdown(timeout=30.0)
    assert "gzip profile abandoned" in daemon.queue.get(gzip.id).error


def test_auto_profile_profiles_a_build_the_library_lacks(tmp_path):
    """A library holding top for the default build only: a top job on
    the no-net build is profiled on no-net first, then completes."""
    from repro.guest.config import VARIANTS

    library = ProfileLibrary(tmp_path / "lib")
    prepare_offline_phase(library, ["top"], scale=1)
    no_net = VARIANTS["no-net"].build_digest()
    assert library.digest_of("top", no_net) is None
    daemon = ServeDaemon(
        library, min_workers=1, max_workers=1, warm_target=0,
        auto_profile=True, profile_scale=1,
    )
    daemon.start()
    try:
        qjob = daemon.submit({"app": "top", "scale": 1, "guest": "no-net"})
        done = daemon.queue.wait_terminal(qjob.id, timeout=60.0)
        assert done is not None and done.state == "done", done and done.error
    finally:
        daemon.shutdown(timeout=30.0)
    assert library.get("top", no_net).guest_digest == no_net
