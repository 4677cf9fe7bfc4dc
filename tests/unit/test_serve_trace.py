"""Request-scoped trace propagation through the serve daemon.

Every submission carries one trace id -- minted client-side by
``ServeClient.submit`` (or daemon-side at admission) -- stamped into
queue entries, lifecycle events, status rows and the submit response,
so ``repro obs trace`` can follow a request after the daemon is gone.
Also covers the ``--metrics-interval 0`` ergonomics: ``ctl metrics`` /
``ctl top`` against a recorder-less daemon must say so clearly.

The daemons' worker processes run a fake ``execute_job``, patched into
:mod:`repro.serve.daemon` before ``start()``, so no guest boots.
"""

import time

import pytest

import repro.serve.daemon as daemon_mod
from repro.cli import main
from repro.fleet.jobs import JobResult
from repro.serve import MetricsDisabled, ServeClient, ServeDaemon


def fake_execute_job(machine, job, record, base_seed=0, progress=None):
    time.sleep(0.01)
    return JobResult(
        name=job.name, app=job.app, ok=True,
        cycles=1000, syscalls=5, job_cycles=1000,
    )


@pytest.fixture()
def daemon(serve_library, monkeypatch, tmp_path):
    monkeypatch.setattr(daemon_mod, "execute_job", fake_execute_job)
    d = ServeDaemon(
        serve_library,
        socket_path=str(tmp_path / "serve.sock"),
        warm_target=0,
    )
    d.start()
    yield d
    if not d.stopped.is_set():
        d.shutdown(timeout=10.0)


def test_daemon_mints_trace_at_admission_when_absent(daemon):
    queued = daemon.submit({"app": "top", "scale": 2})
    assert len(queued.trace_id) == 32
    int(queued.trace_id, 16)  # hex


def test_explicit_trace_id_sticks(daemon):
    queued = daemon.submit({"app": "top", "scale": 2}, trace_id="cafe01")
    assert queued.trace_id == "cafe01"
    assert daemon.queue.get(queued.id).describe()["trace"] == "cafe01"


def test_client_submit_echoes_trace_and_status_carries_it(daemon):
    client = ServeClient(daemon.socket_path)
    response = client.submit("top", trace_id="deadbeef")
    assert response["trace"] == "deadbeef"
    job = client.status(response["id"])["job"]
    assert job["trace"] == "deadbeef"


def test_client_mints_trace_when_not_supplied(daemon):
    client = ServeClient(daemon.socket_path)
    response = client.submit("top")
    assert len(response["trace"]) == 32


def test_lifecycle_events_are_stamped_with_trace(daemon):
    client = ServeClient(daemon.socket_path)
    response = client.submit("top", trace_id="abad1dea")
    client.result(response["id"], wait=True, timeout=30.0)
    _sink, backlog = daemon.subscribe(since=0)
    stamped = [e for e in backlog if e.get("trace") == "abad1dea"]
    kinds = {e["type"] for e in stamped}
    assert "queued" in kinds
    assert "start" in kinds
    assert "done" in kinds


def test_ctl_submit_prints_trace_id(daemon, capsys):
    sock = daemon.socket_path
    code = main([
        "ctl", "--socket", sock, "submit", "top",
        "--trace-id", "0ddba11",
    ])
    assert code == 0
    assert "trace 0ddba11" in capsys.readouterr().out


def test_ctl_metrics_disabled_is_a_clear_exit_2(
    serve_library, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(daemon_mod, "execute_job", fake_execute_job)
    d = ServeDaemon(
        serve_library,
        socket_path=str(tmp_path / "serve.sock"),
        warm_target=0,
        metrics_interval=None,
    )
    d.start()
    try:
        for verb in (["metrics"], ["top", "--once"]):
            code = main(["ctl", "--socket", d.socket_path, *verb])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: metrics recorder disabled")
            assert "--metrics-interval 0" in err
        with pytest.raises(MetricsDisabled):
            ServeClient(d.socket_path).metrics()
    finally:
        d.shutdown(timeout=10.0)
