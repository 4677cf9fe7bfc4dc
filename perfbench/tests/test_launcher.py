"""The launcher's span dump must survive the daemon stopping."""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracing

ROOT = Path(__file__).resolve().parents[2]


def _start(tmp_path: Path):
    sock = tmp_path / "d.sock"
    spans = tmp_path / "d.spans"
    proc = subprocess.Popen(
        [
            sys.executable, "perfbench/launcher.py", "--spans", str(spans), "--",
            "serve", "--socket", str(sock), "--library", str(tmp_path / "lib"),
            "--min-workers", "1", "--max-workers", "1", "--warm", "1",
            "--metrics-interval", "0",
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    line = ""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        if not line or "listening on" in line:
            break
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        pytest.fail(f"daemon did not start: {proc.stderr.read()[-2000:]}")
    return proc, sock, spans


def _counts(spans: Path):
    """Span counts by name; the main thread's spans must all be closed."""
    dump = tracing.load(str(spans))
    main = [log for log in dump.logs if log.thread == "MainThread"]
    assert main and all(end > 0 for log in main for end in log.end)
    return tracing.self_times(dump.names, dump.logs).n


def test_dump_written_after_ctl_shutdown(tmp_path):
    from repro.serve import ServeClient

    proc, sock, spans = _start(tmp_path)
    try:
        client = ServeClient(str(sock), timeout=30)
        client.ping()
        client.shutdown(drain=True, timeout=30)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    counts = _counts(spans)
    assert counts["guest.boot"] == 1
    assert counts["fleet.capture"] == 1
    assert counts["serve.protocol"] >= 2


def test_dump_written_on_sigterm(tmp_path):
    proc, sock, spans = _start(tmp_path)
    try:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert _counts(spans)["guest.boot"] == 1
