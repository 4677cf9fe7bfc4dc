"""Serve worker processes: crash, cancel, shutdown and daemon-death outcomes.

Each test runs real guests in real worker processes and checks one
defined host-side outcome: a SIGKILLed worker fails exactly its job,
jobs that no worker can run once the spawner is gone fail by name, a
cancelled running job is charged what it consumed, a shutdown or a
SIGKILLed daemon leaves no worker or spawner behind, and one app's
offline profile never stalls another app's jobs.
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
from repro.fleet.jobs import run_job_on_fresh_machine
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
    except FileNotFoundError:
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
    finally:
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
