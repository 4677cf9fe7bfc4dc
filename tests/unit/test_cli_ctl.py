"""Exit-code hygiene for ``repro ctl`` (the PR 3 convention).

Client-side failures -- daemon unreachable, unknown job id, rejected
submission -- must return non-zero with an ``error:`` line on stderr;
a daemon-reported failed job returns 1.  The worker processes of the
daemon behind these tests run a fake ``execute_job``, patched into
:mod:`repro.serve.daemon` before ``start()``, so they stay fast.
"""

import threading
import time

import pytest

import repro.serve.daemon as daemon_mod
from repro.cli import main
from repro.fleet.jobs import JobResult
from repro.serve import ServeDaemon


@pytest.fixture()
def live_daemon(serve_library, monkeypatch, tmp_path):
    def fake(machine, job, record, base_seed=0, progress=None):
        time.sleep(0.01)
        ok = job.app != "gzip"  # gzip jobs "fail" for the exit-1 case
        return JobResult(
            name=job.name, app=job.app, ok=ok,
            cycles=1000, syscalls=5, job_cycles=1000,
            error="" if ok else "workload crashed",
        )

    monkeypatch.setattr(daemon_mod, "execute_job", fake)
    sock = str(tmp_path / "serve.sock")
    daemon = ServeDaemon(
        serve_library,
        socket_path=sock,
        max_queue_depth=64,
        warm_target=0,
    )
    daemon.start()
    yield sock
    daemon.shutdown(timeout=10.0)


def test_ctl_unreachable_daemon_exits_2(tmp_path, capsys):
    code = main(["ctl", "--socket", str(tmp_path / "nope.sock"), "ping"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no serve daemon reachable" in err


def test_ctl_unknown_job_id_exits_2(live_daemon, capsys):
    code = main(["ctl", "--socket", live_daemon, "result", "job-9999"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown job id" in err


def test_ctl_rejected_submission_exits_2(live_daemon, capsys):
    code = main(["ctl", "--socket", live_daemon, "submit", "nosuchapp"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown application" in err


def test_ctl_submit_wait_success_exits_0(live_daemon, capsys):
    code = main([
        "ctl", "--socket", live_daemon,
        "submit", "top", "--wait", "--timeout", "30",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "submitted job-0001 (top#0)" in out
    assert "done" in out


def test_ctl_failed_job_result_exits_1(live_daemon, capsys):
    code = main([
        "ctl", "--socket", live_daemon,
        "submit", "gzip", "--wait", "--timeout", "30",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "workload crashed" in captured.err


def test_ctl_status_and_cancel_flow(live_daemon, capsys):
    assert main(
        ["ctl", "--socket", live_daemon, "submit", "top"]
    ) == 0
    assert main(["ctl", "--socket", live_daemon, "status"]) == 0
    out = capsys.readouterr().out
    assert "job-0001" in out and "top#0" in out
    # already-terminal cancel surfaces as a client error (exit 2)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        main(["ctl", "--socket", live_daemon, "status", "job-0001"])
        if "state            done" in capsys.readouterr().out:
            break
        time.sleep(0.02)
    code = main(["ctl", "--socket", live_daemon, "cancel", "job-0001"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_ctl_stats_table_default_and_json(live_daemon, capsys):
    assert main([
        "ctl", "--socket", live_daemon,
        "submit", "top", "--wait", "--timeout", "30",
    ]) == 0
    capsys.readouterr()
    assert main(["ctl", "--socket", live_daemon, "stats"]) == 0
    out = capsys.readouterr().out
    # the human table leads with daemon/queue/workers rows
    assert out.startswith("daemon")
    assert "queue      depth 0/64" in out
    assert "workers    alive" in out
    assert "done=1" in out
    assert "default" in out  # tenant row
    # --json keeps the raw dump (scripting interface unchanged)
    assert main(["ctl", "--socket", live_daemon, "stats", "--json"]) == 0
    parsed = __import__("json").loads(capsys.readouterr().out)
    assert parsed["queue"]["max_depth"] == 64


def test_ctl_metrics_json_prom_series(live_daemon, capsys):
    import json as json_mod

    assert main([
        "ctl", "--socket", live_daemon,
        "submit", "top", "--wait", "--timeout", "30",
    ]) == 0
    capsys.readouterr()
    assert main(["ctl", "--socket", live_daemon, "metrics"]) == 0
    described = json_mod.loads(capsys.readouterr().out)
    assert described["samples"] >= 0 and "queue" in described

    assert main(["ctl", "--socket", live_daemon, "metrics", "--prom"]) == 0
    prom = capsys.readouterr().out
    assert "repro_serve_alert_state" in prom

    assert main(["ctl", "--socket", live_daemon, "metrics", "--series"]) == 0
    series = json_mod.loads(capsys.readouterr().out)
    assert "series" in series


def test_ctl_top_once_renders_frame(live_daemon, capsys):
    assert main(["ctl", "--socket", live_daemon, "top", "--once"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("repro serve  pid")
    assert "queue" in out and "alerts" in out
    assert "\x1b[2J" not in out  # --once never clears the screen


def test_ctl_shutdown_drains(serve_library, monkeypatch, tmp_path, capsys):
    def fake(machine, job, record, base_seed=0, progress=None):
        time.sleep(0.01)
        return JobResult(
            name=job.name, app=job.app, ok=True,
            cycles=1, syscalls=1, job_cycles=1,
        )

    monkeypatch.setattr(daemon_mod, "execute_job", fake)
    sock = str(tmp_path / "serve.sock")
    daemon = ServeDaemon(
        serve_library,
        socket_path=sock,
        warm_target=0,
    )
    daemon.start()
    shutdown_done = threading.Event()
    try:
        for _ in range(3):
            assert main(["ctl", "--socket", sock, "submit", "top"]) == 0
        assert main(["ctl", "--socket", sock, "shutdown"]) == 0
        shutdown_done.set()
        out = capsys.readouterr().out
        assert "drained" in out and "done=3" in out
        # and now the daemon is gone: unreachable is exit 2
        assert main(["ctl", "--socket", sock, "ping"]) == 2
    finally:
        if not shutdown_done.is_set():
            daemon.shutdown(timeout=10.0)
