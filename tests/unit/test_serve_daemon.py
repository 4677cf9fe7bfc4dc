"""Serve daemon: workers, cancel/budget aborts, drain, control socket.

Every job here runs in a real worker process, through a **fake
``execute_job``** patched into :mod:`repro.serve.daemon` before
``start()`` forks the spawner.  The fakes boot no guest, so the
daemon's control plane (queue, events, workers, socket) is exercised in
milliseconds per job.  They signal the test across the process
boundary with files under ``tmp_path``, and a running fake sees cancel,
budget and timeout through ``progress``, as a real job does.  The real
execution path (and its bit-identity with the batch fleet) is covered
by ``tests/integration/test_serve_e2e.py`` and the ``serve`` scenario
of ``benchmarks/gates.py``.
"""

import contextlib
import gc
import os
import threading
import time
import warnings

import pytest

import repro.serve.daemon as daemon_mod
from repro.fleet import ProfileLibrary
from repro.fleet.jobs import JobResult
from repro.serve import (
    AdmissionError,
    JobAborted,
    ServeClient,
    ServeDaemon,
    SubmissionRejected,
    TenantPolicy,
    UnknownJob,
)
from repro.serve.queue import REASON_NO_PROFILE, REASON_TENANT_BUDGET
from repro.telemetry import Telemetry, snapshot


def _result(job, cycles=1000):
    registry = Telemetry()
    registry.counter("hv.exits").inc(7)
    return JobResult(
        name=job.name,
        app=job.app,
        ok=True,
        cycles=cycles,
        syscalls=5,
        job_cycles=cycles,
        telemetry=snapshot(registry),
    )


def _finishes(machine, job, record, base_seed=0, progress=None):
    """A fake job that finishes at once."""
    return _result(job)


def _blocking(signals):
    """A fake job that reports 123 consumed cycles, touches
    ``signals/started`` and runs until ``signals/release`` exists."""

    def fake(machine, job, record, base_seed=0, progress=None):
        machine.vcpu.cycles += 123
        (signals / "started").touch()
        while not (signals / "release").exists():
            progress(machine, None)  # raises JobAborted on a cancel
            time.sleep(0.005)
        return _result(job)

    return fake


def _exists(path, timeout=5.0):
    """Wait for ``path`` to appear; False after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _daemon(library, monkeypatch, fake, **kw):
    """A started daemon (one worker unless ``kw`` says otherwise) whose
    worker processes run ``fake`` as ``execute_job``."""
    monkeypatch.setattr(daemon_mod, "execute_job", fake)
    daemon = ServeDaemon(library, **{"max_workers": 1, **kw})
    daemon.start()
    return daemon


def _events(daemon, kind):
    return [e for e in daemon._events if e["type"] == kind]


@contextlib.contextmanager
def _no_resource_warnings():
    """Fail when the block leaves a socket or a file unclosed."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [
        str(w.message) for w in caught if issubclass(w.category, ResourceWarning)
    ]
    assert leaks == []


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------


def test_submit_runs_and_merges_lifetime_telemetry(serve_library, monkeypatch):
    daemon = _daemon(serve_library, monkeypatch, _finishes)
    try:
        first = daemon.submit({"app": "top", "scale": 1})
        second = daemon.submit({"app": "top", "scale": 1})
        for qjob in (first, second):
            done = daemon.queue.wait_terminal(qjob.id, timeout=5.0)
            assert done is not None and done.state == "done"
        # fleet-spec naming convention -> fleet-identical derived seeds
        assert [first.job.name, second.job.name] == ["top#0", "top#1"]
        assert first.result["id"] == first.id
        lifetime = daemon.stats()["jobs_telemetry"]
        assert lifetime["sources"] == 2
        assert lifetime["counters"]["hv.exits"] == 14
        assert [e["job"] for e in _events(daemon, "done")] == ["top#0", "top#1"]
    finally:
        daemon.shutdown(timeout=5.0)


def test_submit_validates_app_attack_guest(serve_library):
    daemon = ServeDaemon(serve_library)  # never started: nothing is queued
    try:
        with pytest.raises(ValueError, match="unknown application"):
            daemon.submit({"app": "nosuch"})
        with pytest.raises(ValueError, match="unknown malware"):
            daemon.submit({"app": "top", "attack": "nosuch"})
        with pytest.raises(ValueError, match="infects"):
            daemon.submit({"app": "gzip", "attack": "Injectso"})
        with pytest.raises(ValueError, match="guest"):
            daemon.submit({"app": "top", "guest": "nosuch-variant"})
    finally:
        daemon.shutdown(timeout=5.0)


# ---------------------------------------------------------------------------
# aborts: cancel-while-running, budget exhaustion mid-job
# ---------------------------------------------------------------------------


def test_cancel_running_job_aborts_and_charges(
    serve_library, monkeypatch, tmp_path
):
    release, started = tmp_path / "release", tmp_path / "started"
    daemon = _daemon(serve_library, monkeypatch, _blocking(tmp_path))
    try:
        qjob = daemon.submit({"app": "top", "scale": 1})
        assert _exists(started)
        assert daemon.queue.cancel(qjob.id) == "cancel-requested"
        done = daemon.queue.wait_terminal(qjob.id, timeout=5.0)
        assert done.state == "cancelled"
        assert "cancelled while running" in done.error
        tenants = daemon.queue.describe()["tenants"]
        assert tenants["default"]["charged_cycles"] == 123
        assert _events(daemon, "cancelled")
    finally:
        release.touch()
        daemon.shutdown(timeout=5.0)


def test_budget_exhaustion_mid_job_fails_and_blocks_tenant(
    serve_library, monkeypatch
):
    consumed = 750

    def fake(machine, job, record, base_seed=0, progress=None):
        # what the worker's progress check raises past the budget
        raise JobAborted("tenant-budget", consumed)

    daemon = _daemon(
        serve_library, monkeypatch, fake,
        default_policy=TenantPolicy(cycle_budget=1000),
    )
    try:
        qjob = daemon.submit({"app": "top", "scale": 1})
        done = daemon.queue.wait_terminal(qjob.id, timeout=5.0)
        assert done.state == "failed"
        assert "budget exhausted mid-job" in done.error
        # the partial run is still charged...
        assert daemon.queue.remaining_budget("default") == 1000 - consumed
        # ...and a second over-budget abort pins the tenant at zero
        second = daemon.submit({"app": "top", "scale": 1})
        daemon.queue.wait_terminal(second.id, timeout=5.0)
        with pytest.raises(AdmissionError) as err:
            daemon.submit({"app": "top", "scale": 1})
        assert err.value.reason == REASON_TENANT_BUDGET
    finally:
        daemon.shutdown(timeout=5.0)


# ---------------------------------------------------------------------------
# admission / rejection events
# ---------------------------------------------------------------------------


def test_no_profile_rejection_without_auto_profile(tmp_path):
    daemon = ServeDaemon(
        ProfileLibrary(str(tmp_path / "lib")), auto_profile=False
    )
    try:
        with pytest.raises(AdmissionError) as err:
            daemon.submit({"app": "top", "scale": 1})
        assert err.value.reason == REASON_NO_PROFILE
        rejected = _events(daemon, "rejected")
        assert rejected and rejected[0]["reason"] == REASON_NO_PROFILE
    finally:
        daemon.shutdown(timeout=5.0)


# ---------------------------------------------------------------------------
# shutdown semantics
# ---------------------------------------------------------------------------


def test_graceful_shutdown_drains_every_queued_job(serve_library, monkeypatch):
    def fake(machine, job, record, base_seed=0, progress=None):
        time.sleep(0.01)
        return _result(job)

    daemon = _daemon(serve_library, monkeypatch, fake)
    jobs = [daemon.submit({"app": "top", "scale": 1}) for _ in range(4)]
    summary = daemon.shutdown(drain=True, timeout=10.0)
    assert summary["drained"]
    assert summary["jobs"] == {"done": 4}
    for qjob in jobs:
        assert qjob.state == "done" and qjob.result is not None
    with pytest.raises(AdmissionError, match="shutting down"):
        daemon.submit({"app": "top", "scale": 1})


def test_no_drain_shutdown_cancels_queued_keeps_running(
    serve_library, monkeypatch, tmp_path
):
    daemon = _daemon(serve_library, monkeypatch, _blocking(tmp_path))
    running = daemon.submit({"app": "top", "scale": 1})
    queued = daemon.submit({"app": "top", "scale": 1})
    assert _exists(tmp_path / "started")
    shutdown = threading.Thread(
        target=daemon.shutdown, kwargs={"drain": False, "timeout": 10.0}
    )
    shutdown.start()
    (tmp_path / "release").touch()
    shutdown.join(timeout=10.0)
    assert not shutdown.is_alive()
    assert running.state == "done"
    assert queued.state == "cancelled"


# ---------------------------------------------------------------------------
# control socket end-to-end (fake jobs, real unix socket + client)
# ---------------------------------------------------------------------------


def test_control_socket_end_to_end(serve_library, monkeypatch, tmp_path):
    release, started = tmp_path / "release", tmp_path / "started"
    sock = str(tmp_path / "serve.sock")
    daemon = _daemon(
        serve_library, monkeypatch, _blocking(tmp_path),
        socket_path=sock,
        max_workers=2,
        warm_target=0,
    )
    client = ServeClient(sock)
    try:
        info = client.ping()
        assert info["accepting"] and info["version"] == 1

        first = client.submit("top", scale=1)
        assert first["name"] == "top#0"
        assert _exists(started)
        backlog = [client.submit("top", scale=1) for _ in range(3)]

        # queue pressure grows the worker pool to its bound
        deadline = time.monotonic() + 5.0
        while daemon.worker_count() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert daemon.worker_count() == 2

        jobs = client.status()["jobs"]
        assert len(jobs) == 4
        assert {j["id"] for j in jobs} == {
            first["id"], *(b["id"] for b in backlog)
        }

        with pytest.raises(UnknownJob):
            client.status("job-9999")
        with pytest.raises(UnknownJob):
            client.result("job-9999")
        with pytest.raises(SubmissionRejected) as err:
            client.submit("nosuchapp")
        assert err.value.reason == "bad-request"

        cancelled = client.cancel(backlog[-1]["id"])
        assert cancelled["action"] == "cancelled"

        watched = []
        watcher = threading.Thread(
            target=lambda: watched.extend(client.watch()), daemon=True
        )
        watcher.start()
        release.touch()
        done = client.result(first["id"], wait=True, timeout=10.0)
        assert done["job"]["state"] == "done"
        assert done["result"]["cycles"] == 1000

        stats = client.stats()
        assert stats["queue"]["max_depth"] == 64
        assert stats["workers"]["max"] == 2

        summary = client.shutdown(drain=True, timeout=10.0)
        assert summary["drained"]
        assert summary["jobs"] == {"done": 3, "cancelled": 1}
        watcher.join(timeout=5.0)
        kinds = {e["type"] for e in watched}
        assert "done" in kinds and "serve-stopped" in kinds
    finally:
        release.touch()
        daemon.shutdown(timeout=5.0)


def test_client_unreachable_raises(tmp_path):
    from repro.serve.client import DaemonUnreachable

    client = ServeClient(str(tmp_path / "nope.sock"))
    with _no_resource_warnings():
        with pytest.raises(DaemonUnreachable):
            client.ping()


def test_client_closes_its_reader_on_every_path(
    serve_library, monkeypatch, tmp_path
):
    """A rejected submission and a watch that ends with the daemon close
    the socket's reader along with the socket: the descriptor is closed
    when the call returns, even while a traceback keeps the request's
    frame alive, and nothing is left for the collector to find."""
    from repro.serve import protocol

    sock = str(tmp_path / "serve.sock")
    daemon = _daemon(
        serve_library, monkeypatch, _finishes,
        socket_path=sock,
        warm_target=0,
    )
    client = ServeClient(sock)
    opened = []
    connect = protocol.connect

    def recording(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(protocol, "connect", recording)

    def stop_when_watched():
        deadline = time.monotonic() + 5.0
        while not daemon._subscribers and time.monotonic() < deadline:
            time.sleep(0.01)
        daemon.shutdown(drain=True, timeout=10.0)

    stopper = threading.Thread(target=stop_when_watched, daemon=True)
    try:
        with _no_resource_warnings():
            with pytest.raises(SubmissionRejected) as err:
                client.submit("nosuchapp")
            assert err.value.reason == "bad-request"
            assert [s.fileno() for s in opened] == [-1]
            del err
        with _no_resource_warnings():
            stopper.start()
            kinds = [event["type"] for event in client.watch()]
            stopper.join(timeout=10.0)
            assert [s.fileno() for s in opened] == [-1, -1]
        assert "serve-stopped" in kinds
    finally:
        daemon.shutdown(timeout=5.0)


# ---------------------------------------------------------------------------
# service metrics: sampling, alerts, scrape surfaces
# ---------------------------------------------------------------------------


def test_event_sink_bounded_offer_and_drop_accounting():
    from repro.serve import EventSink

    sink = EventSink(maxsize=2)
    assert sink.offer({"seq": 1})
    assert sink.offer({"seq": 2})
    # full: offer never blocks, it drops and accounts
    assert not sink.offer({"seq": 3})
    assert not sink.offer({"seq": 4})
    assert sink.dropped_total == 2
    assert sink.take_dropped() == 2
    assert sink.take_dropped() == 0  # cleared once reported
    assert sink.get(timeout=0.1)["seq"] == 1


def test_metrics_sampling_fires_queue_saturation(
    serve_library, monkeypatch, tmp_path
):
    release = tmp_path / "release"
    # the recorder's thread samples once at start; the hour-long
    # interval leaves every later tick to this test
    daemon = _daemon(
        serve_library, monkeypatch, _blocking(tmp_path),
        max_queue_depth=2,
        metrics_interval=3600.0,
        ops_journal=str(tmp_path / "ops.journal"),
    )
    try:
        deadline = time.monotonic() + 5.0
        while daemon.metrics.samples < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        daemon.submit({"app": "top", "scale": 1})
        assert _exists(tmp_path / "started")
        daemon.submit({"app": "top", "scale": 1})
        daemon.submit({"app": "top", "scale": 1})
        # queue now 2/2: two manual ticks debounce into a fire
        assert daemon._sample_metrics() == []
        transitions = daemon._sample_metrics()
        assert [(t.rule, t.state) for t in transitions] == [
            ("queue-saturation", "firing")
        ]
        alert_events = _events(daemon, "alert")
        assert alert_events and alert_events[0]["rule"] == "queue-saturation"
        labelled = snapshot(daemon.telemetry)["labelled_counters"]
        assert labelled["serve.alerts"] == {"queue-saturation:firing": 1}

        described = daemon.metrics_describe()
        assert described["queue"]["utilization"] == 1.0
        assert described["alerts"]["active"][0]["rule"] == "queue-saturation"

        release.touch()
        for job in daemon.queue.jobs():
            daemon.queue.wait_terminal(job.id, timeout=5.0)
        resolved = daemon._sample_metrics()
        assert ("queue-saturation", "resolved") in [
            (t.rule, t.state) for t in resolved
        ]
    finally:
        release.touch()
        daemon.shutdown(timeout=5.0)
    # the ops journal recorded both transitions for repro forensics
    from repro.obs import render_forensics

    narrative = render_forensics(tmp_path / "ops.journal")
    assert "operational incidents (2 transitions)" in narrative
    assert "FIRING" in narrative and "RESOLVED" in narrative
    assert "queue-saturation" in narrative


def test_each_alert_transition_is_archived_once(
    serve_library, monkeypatch, tmp_path
):
    """An alert transition reaches the archive as one ``alert`` record,
    not also as a lifecycle ``event``; the live stream still has it."""
    from repro.obs.metrics import AlertCondition, AlertRule
    from repro.obs.store import read_archive

    always = AlertRule(
        name="always",
        condition=AlertCondition("serve.queue.depth", ">=", 0.0),
        for_samples=1,
    )
    daemon = _daemon(
        serve_library, monkeypatch, _finishes,
        metrics_interval=3600.0,
        alert_rules=[always],
        obs_dir=str(tmp_path / "obs"),
    )
    try:
        deadline = time.monotonic() + 5.0
        while not _events(daemon, "alert") and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        daemon.shutdown(timeout=5.0)
    live = [(e["rule"], e["state"]) for e in _events(daemon, "alert")]
    assert live == [("always", "firing")]
    archive = read_archive(tmp_path / "obs")
    archived = [(a["rule"], a["state"]) for a in archive.alerts] + [
        (e["event"]["rule"], e["event"]["state"])
        for e in archive.events
        if e["event"]["type"] == "alert"
    ]
    assert archived == live


def test_metrics_text_exposes_registry_and_series(serve_library, monkeypatch):
    daemon = _daemon(serve_library, monkeypatch, _finishes)
    try:
        qjob = daemon.submit({"app": "top", "scale": 1})
        daemon.queue.wait_terminal(qjob.id, timeout=5.0)
        daemon._sample_metrics()
        text = daemon.metrics_text()
        # registry counters (serve.* and merged job telemetry)...
        assert "# TYPE repro_serve_completed_total counter" in text
        assert "repro_jobs_hv_exits_total 7" in text
        # ...ring-series gauges and alert states
        assert "repro_serve_queue_depth 0" in text
        assert 'repro_serve_alert_state{rule="worker-stall"} 0' in text
    finally:
        daemon.shutdown(timeout=5.0)


def test_metrics_disabled_raises(serve_library, monkeypatch):
    daemon = _daemon(serve_library, monkeypatch, _finishes, metrics_interval=None)
    try:
        assert daemon.metrics is None
        from repro.serve import ServeError

        with pytest.raises(ServeError, match="metrics"):
            daemon.metrics_describe()
    finally:
        daemon.shutdown(timeout=5.0)


def test_metrics_op_over_socket(serve_library, monkeypatch, tmp_path):
    from repro.serve.client import ServeClientError

    sock = str(tmp_path / "serve.sock")
    daemon = _daemon(
        serve_library, monkeypatch, _finishes,
        socket_path=sock,
        warm_target=0,
        metrics_interval=0.05,
    )
    client = ServeClient(sock)
    try:
        job = client.submit("top", scale=1)
        client.result(job["id"], wait=True, timeout=10.0)
        deadline = time.monotonic() + 5.0
        while daemon.metrics.samples < 2 and time.monotonic() < deadline:
            time.sleep(0.02)

        described = client.metrics()
        assert described["samples"] >= 2
        assert described["throughput"]["finished_total"] >= 1.0
        assert "default" in described["tenants"]

        text = client.metrics(format="prom")
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_alert_state" in text

        series = client.metrics(format="series")
        assert "serve.queue.depth" in series["series"]
    finally:
        client.shutdown(drain=True, timeout=10.0)
        daemon.shutdown(timeout=5.0)

    # a daemon without a recorder reports no-metrics over the socket
    daemon = _daemon(
        serve_library, monkeypatch, _finishes,
        socket_path=sock,
        warm_target=0,
        metrics_interval=None,
    )
    try:
        with pytest.raises(ServeClientError, match="no-metrics|metrics"):
            ServeClient(sock).metrics()
    finally:
        daemon.shutdown(timeout=5.0)


def test_metrics_http_listener_serves_scrapes(serve_library, monkeypatch):
    import json as json_mod
    import urllib.error
    import urllib.request

    daemon = _daemon(
        serve_library, monkeypatch, _finishes,
        warm_target=0,
        metrics_interval=0.05,
        metrics_addr="127.0.0.1:0",
    )
    try:
        assert daemon.metrics_port not in (None, 0)
        base = f"http://127.0.0.1:{daemon.metrics_port}"
        deadline = time.monotonic() + 5.0
        while daemon.metrics.samples < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        with urllib.request.urlopen(f"{base}/metrics", timeout=5) as fh:
            body = fh.read().decode("utf-8")
            assert fh.headers["Content-Type"].startswith("text/plain")
        assert "repro_serve_queue_depth" in body
        with urllib.request.urlopen(f"{base}/metrics.json", timeout=5) as fh:
            described = json_mod.loads(fh.read().decode("utf-8"))
        assert described["samples"] >= 1
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/nope", timeout=5)
        assert err.value.code == 404
        err.value.close()  # the error is the response: it holds the socket
    finally:
        daemon.shutdown(timeout=5.0)


def test_bad_metrics_addr_rejected(serve_library, tmp_path):
    """The failed start is undone: its control socket and its spawner
    are gone."""
    from repro.serve import ServeError

    sock = tmp_path / "bad.sock"
    daemon = ServeDaemon(
        serve_library,
        socket_path=str(sock),
        warm_target=0,
        metrics_addr="9464",  # no host part
    )
    try:
        with _no_resource_warnings():
            with pytest.raises(ServeError, match="host:port"):
                daemon.start()
        assert not sock.exists()
        spawner = daemon.stats()["workers"]["spawner"]
        assert spawner is not None
        assert not os.path.exists(f"/proc/{spawner}")
    finally:
        daemon.shutdown(timeout=5.0)


# ---------------------------------------------------------------------------
# watch-stream backpressure: a slow consumer must never block the daemon
# ---------------------------------------------------------------------------


def test_slow_subscriber_drops_instead_of_blocking(serve_library, monkeypatch):
    daemon = _daemon(serve_library, monkeypatch, _finishes, watch_buffer=4)
    try:
        sink, _ = daemon.subscribe()
        # nobody drains the sink; a burst far past its bound must
        # return promptly (bounded, non-blocking offers)
        t0 = time.monotonic()
        for i in range(500):
            daemon._emit({"type": "tick", "i": i})
        assert time.monotonic() - t0 < 2.0
        assert sink.dropped_total == 496
        counters = snapshot(daemon.telemetry)["counters"]
        assert counters["serve.watch.dropped"] == 496
        # a second, fresh subscriber is unaffected by the slow one
        fast, _ = daemon.subscribe()
        daemon._emit({"type": "tick", "i": 500})
        assert fast.get(timeout=1.0)["type"] == "tick"
        daemon.unsubscribe(sink)
        daemon.unsubscribe(fast)
    finally:
        daemon.shutdown(timeout=5.0)


def test_watch_socket_reports_dropped_events(
    serve_library, monkeypatch, tmp_path
):
    sock = str(tmp_path / "serve.sock")
    daemon = _daemon(
        serve_library, monkeypatch, _finishes,
        socket_path=sock,
        warm_target=0,
        watch_buffer=2,
    )
    client = ServeClient(sock)
    events = []
    done = threading.Event()

    def consume():
        for event in client.watch():
            events.append(event)
            if event.get("type") == "serve-stopped":
                break
        done.set()

    watcher = threading.Thread(target=consume, daemon=True)
    watcher.start()
    try:
        deadline = time.monotonic() + 5.0
        while not daemon._subscribers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert daemon._subscribers
        # overwhelm the 2-slot sink faster than the handler can drain
        for i in range(2000):
            daemon._emit({"type": "tick", "i": i})
        # the daemon stays fully responsive while the watcher lags
        assert ServeClient(sock).ping()["accepting"]
    finally:
        daemon.shutdown(drain=True, timeout=10.0)
    assert done.wait(timeout=10.0)
    drops = [e for e in events if e.get("type") == "watch-dropped"]
    ticks = [e for e in events if e.get("type") == "tick"]
    assert drops, "handler never surfaced a watch-dropped marker"
    # nothing vanishes silently: every emitted tick is either delivered
    # or inside a drop count (which may also cover lifecycle events
    # emitted during shutdown)
    assert len(ticks) + sum(e["dropped"] for e in drops) >= 2000
