"""Serve daemon: workers, cancel/budget aborts, drain, control socket.

Everything here runs against a **fake executor** so the daemon's
control plane (queue, events, workers, socket) is exercised without
booting guests; the real execution path (and its bit-identity with the
batch fleet) is covered by ``tests/integration/test_serve_e2e.py`` and
the ``serve`` scenario of ``benchmarks/gates.py``.
"""

import contextlib
import gc
import os
import threading
import time
import warnings

import pytest

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


def _result(qjob, cycles=1000):
    registry = Telemetry()
    registry.counter("hv.exits").inc(7)
    return JobResult(
        name=qjob.job.name,
        app=qjob.job.app,
        ok=True,
        cycles=cycles,
        syscalls=5,
        job_cycles=cycles,
        telemetry=snapshot(registry),
    )


def _daemon(tmp_path, executor, workers=1, **kw):
    daemon = ServeDaemon(
        ProfileLibrary(str(tmp_path / "lib")),
        auto_profile=True,
        executor=executor,
        min_workers=1,
        max_workers=max(1, workers),
        **kw,
    )
    daemon._scale_to(workers)
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


def test_submit_runs_and_merges_lifetime_telemetry(tmp_path):
    daemon = _daemon(tmp_path, _result)
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


def test_submit_validates_app_attack_guest(tmp_path):
    daemon = _daemon(tmp_path, _result, workers=0)
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


def _blocking_executor(release, started):
    def executor(qjob):
        started.set()
        while not release.is_set():
            if qjob.cancel_requested:
                raise JobAborted("cancelled", 123)
            time.sleep(0.005)
        return _result(qjob)

    return executor


def test_cancel_running_job_aborts_and_charges(tmp_path):
    release, started = threading.Event(), threading.Event()
    daemon = _daemon(tmp_path, _blocking_executor(release, started))
    try:
        qjob = daemon.submit({"app": "top", "scale": 1})
        assert started.wait(timeout=5.0)
        assert daemon.queue.cancel(qjob.id) == "cancel-requested"
        done = daemon.queue.wait_terminal(qjob.id, timeout=5.0)
        assert done.state == "cancelled"
        assert "cancelled while running" in done.error
        tenants = daemon.queue.describe()["tenants"]
        assert tenants["default"]["charged_cycles"] == 123
        assert _events(daemon, "cancelled")
    finally:
        release.set()
        daemon.shutdown(timeout=5.0)


def test_budget_exhaustion_mid_job_fails_and_blocks_tenant(tmp_path):
    consumed = 750

    def executor(qjob):
        raise JobAborted("tenant-budget", consumed)

    daemon = _daemon(
        tmp_path, executor,
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


def test_graceful_shutdown_drains_every_queued_job(tmp_path):
    def executor(qjob):
        time.sleep(0.01)
        return _result(qjob)

    daemon = _daemon(tmp_path, executor)
    jobs = [daemon.submit({"app": "top", "scale": 1}) for _ in range(4)]
    summary = daemon.shutdown(drain=True, timeout=10.0)
    assert summary["drained"]
    assert summary["jobs"] == {"done": 4}
    for qjob in jobs:
        assert qjob.state == "done" and qjob.result is not None
    with pytest.raises(AdmissionError, match="shutting down"):
        daemon.submit({"app": "top", "scale": 1})


def test_no_drain_shutdown_cancels_queued_keeps_running(tmp_path):
    release, started = threading.Event(), threading.Event()
    daemon = _daemon(tmp_path, _blocking_executor(release, started))
    running = daemon.submit({"app": "top", "scale": 1})
    queued = daemon.submit({"app": "top", "scale": 1})
    assert started.wait(timeout=5.0)
    shutdown = threading.Thread(
        target=daemon.shutdown, kwargs={"drain": False, "timeout": 10.0}
    )
    shutdown.start()
    release.set()
    shutdown.join(timeout=10.0)
    assert not shutdown.is_alive()
    assert running.state == "done"
    assert queued.state == "cancelled"


# ---------------------------------------------------------------------------
# control socket end-to-end (fake executor, real unix socket + client)
# ---------------------------------------------------------------------------


def test_control_socket_end_to_end(tmp_path):
    release, started = threading.Event(), threading.Event()
    sock = str(tmp_path / "serve.sock")
    daemon = ServeDaemon(
        ProfileLibrary(str(tmp_path / "lib")),
        socket_path=sock,
        auto_profile=True,
        executor=_blocking_executor(release, started),
        min_workers=1,
        max_workers=2,
        warm_target=0,
        scale_interval=0.01,
    )
    daemon.start()
    client = ServeClient(sock)
    try:
        info = client.ping()
        assert info["accepting"] and info["version"] == 1

        first = client.submit("top", scale=1)
        assert first["name"] == "top#0"
        assert started.wait(timeout=5.0)
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
        release.set()
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
        release.set()
        daemon.shutdown(timeout=5.0)


def test_client_unreachable_raises(tmp_path):
    from repro.serve.client import DaemonUnreachable

    client = ServeClient(str(tmp_path / "nope.sock"))
    with _no_resource_warnings():
        with pytest.raises(DaemonUnreachable):
            client.ping()


def test_client_closes_its_reader_on_every_path(tmp_path, monkeypatch):
    """A rejected submission and a watch that ends with the daemon close
    the socket's reader along with the socket: the descriptor is closed
    when the call returns, even while a traceback keeps the request's
    frame alive, and nothing is left for the collector to find."""
    from repro.serve import protocol

    sock = str(tmp_path / "serve.sock")
    daemon = ServeDaemon(
        ProfileLibrary(str(tmp_path / "lib")),
        socket_path=sock,
        auto_profile=True,
        executor=_result,
        warm_target=0,
    )
    daemon.start()
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


def test_metrics_sampling_fires_queue_saturation(tmp_path):
    release, started = threading.Event(), threading.Event()
    daemon = _daemon(
        tmp_path,
        _blocking_executor(release, started),
        max_queue_depth=2,
    )
    from repro.telemetry import Journal

    # start() normally opens the ops journal; open it by hand since
    # this test drives the daemon without its threads
    daemon._ops_journal = Journal(path=str(tmp_path / "ops.journal"))
    try:
        daemon.submit({"app": "top", "scale": 1})
        assert started.wait(timeout=5.0)
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

        release.set()
        for job in daemon.queue.jobs():
            daemon.queue.wait_terminal(job.id, timeout=5.0)
        resolved = daemon._sample_metrics()
        assert ("queue-saturation", "resolved") in [
            (t.rule, t.state) for t in resolved
        ]
    finally:
        release.set()
        daemon.shutdown(timeout=5.0)
    # the ops journal recorded both transitions for repro forensics
    from repro.obs import render_forensics

    narrative = render_forensics(tmp_path / "ops.journal")
    assert "operational incidents (2 transitions)" in narrative
    assert "FIRING" in narrative and "RESOLVED" in narrative
    assert "queue-saturation" in narrative


def test_metrics_text_exposes_registry_and_series(tmp_path):
    daemon = _daemon(tmp_path, _result)
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


def test_metrics_disabled_raises(tmp_path):
    daemon = _daemon(tmp_path, _result, metrics_interval=None)
    try:
        assert daemon.metrics is None
        from repro.serve import ServeError

        with pytest.raises(ServeError, match="metrics"):
            daemon.metrics_describe()
    finally:
        daemon.shutdown(timeout=5.0)


def test_metrics_op_over_socket(tmp_path):
    from repro.serve.client import ServeClientError

    sock = str(tmp_path / "serve.sock")
    daemon = ServeDaemon(
        ProfileLibrary(str(tmp_path / "lib")),
        socket_path=sock,
        auto_profile=True,
        executor=_result,
        warm_target=0,
        metrics_interval=0.05,
    )
    daemon.start()
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
    daemon = ServeDaemon(
        ProfileLibrary(str(tmp_path / "lib")),
        socket_path=sock,
        auto_profile=True,
        executor=_result,
        warm_target=0,
        metrics_interval=None,
    )
    daemon.start()
    try:
        with pytest.raises(ServeClientError, match="no-metrics|metrics"):
            ServeClient(sock).metrics()
    finally:
        daemon.shutdown(timeout=5.0)


def test_metrics_http_listener_serves_scrapes(tmp_path):
    import json as json_mod
    import urllib.error
    import urllib.request

    daemon = ServeDaemon(
        ProfileLibrary(str(tmp_path / "lib")),
        auto_profile=True,
        executor=_result,
        warm_target=0,
        metrics_interval=0.05,
        metrics_addr="127.0.0.1:0",
    )
    daemon.start()
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


def test_bad_metrics_addr_rejected(tmp_path):
    """The failed start is undone: its control socket, and with real
    worker processes (no executor) its spawner, are gone."""
    from repro.serve import ServeError

    for executor in (_result, None):
        sock = tmp_path / "bad.sock"
        daemon = ServeDaemon(
            ProfileLibrary(str(tmp_path / "lib")),
            socket_path=str(sock),
            auto_profile=True,
            executor=executor,
            warm_target=0,
            metrics_addr="9464",  # no host part
        )
        try:
            with _no_resource_warnings():
                with pytest.raises(ServeError, match="host:port"):
                    daemon.start()
            assert not sock.exists()
            spawner = daemon.stats()["workers"]["spawner"]
            assert (spawner is None) == (executor is not None)
            assert spawner is None or not os.path.exists(f"/proc/{spawner}")
        finally:
            daemon.shutdown(timeout=5.0)


# ---------------------------------------------------------------------------
# watch-stream backpressure: a slow consumer must never block the daemon
# ---------------------------------------------------------------------------


def test_slow_subscriber_drops_instead_of_blocking(tmp_path):
    daemon = _daemon(tmp_path, _result, watch_buffer=4)
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


def test_watch_socket_reports_dropped_events(tmp_path):
    sock = str(tmp_path / "serve.sock")
    daemon = ServeDaemon(
        ProfileLibrary(str(tmp_path / "lib")),
        socket_path=sock,
        auto_profile=True,
        executor=_result,
        warm_target=0,
        watch_buffer=2,
    )
    daemon.start()
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
