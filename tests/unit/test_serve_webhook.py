"""Alert webhook delivery discipline (repro.serve.webhook).

The sink must never block the daemon: offers are non-blocking, delivery
retries are bounded, and terminal failures only increment
``serve.alerts.webhook_errors``.
"""

import http.server
import json
import threading
import time

from repro.serve.webhook import AlertWebhook
from repro.telemetry import Telemetry


class _Receiver(http.server.BaseHTTPRequestHandler):
    payloads = []
    fail_first = 0

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if _Receiver.fail_first > 0:
            _Receiver.fail_first -= 1
            self.send_response(500)
            self.end_headers()
            return
        _Receiver.payloads.append(json.loads(body))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


def _serve():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Receiver)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_port}/alerts"


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_delivers_alert_payloads_as_json():
    _Receiver.payloads = []
    server, url = _serve()
    try:
        hook = AlertWebhook(url)
        hook.start()
        payload = {
            "type": "alert", "rule": "queue_saturated", "label": "",
            "state": "firing", "value": 0.95, "threshold": 0.9,
            "at": 1.0, "description": "hot",
        }
        assert hook.offer(payload) is True
        assert _wait(lambda: len(_Receiver.payloads) == 1)
        assert _Receiver.payloads[0] == payload
        assert hook.delivered == 1 and hook.errors == 0
        hook.stop()
    finally:
        server.shutdown()
        server.server_close()


def test_retries_through_transient_failures():
    _Receiver.payloads = []
    _Receiver.fail_first = 2
    server, url = _serve()
    try:
        hook = AlertWebhook(url, retries=3, backoff=0.01)
        hook.start()
        hook.offer({"type": "alert", "rule": "r", "state": "firing"})
        assert _wait(lambda: len(_Receiver.payloads) == 1)
        assert hook.errors == 0
        hook.stop()
    finally:
        _Receiver.fail_first = 0
        server.shutdown()
        server.server_close()


def test_terminal_failure_counts_webhook_errors():
    telemetry = Telemetry()
    # nothing listens on this port: every attempt fails fast
    hook = AlertWebhook(
        "http://127.0.0.1:1/alerts",
        telemetry=telemetry,
        retries=2,
        backoff=0.01,
        timeout=0.2,
    )
    hook.start()
    hook.offer({"type": "alert", "rule": "r", "state": "firing"})
    assert _wait(lambda: hook.errors == 1)
    assert telemetry.counter("serve.alerts.webhook_errors").value == 1
    hook.stop()


def test_offer_overflow_is_counted_not_blocking():
    telemetry = Telemetry()
    hook = AlertWebhook(
        "http://127.0.0.1:1/alerts", telemetry=telemetry, maxsize=2
    )
    # never started: the queue only fills
    assert hook.offer({"n": 1}) is True
    assert hook.offer({"n": 2}) is True
    assert hook.offer({"n": 3}) is False
    assert hook.errors == 1
    assert telemetry.counter("serve.alerts.webhook_errors").value == 1


def test_stop_is_bounded_even_with_dead_receiver():
    hook = AlertWebhook(
        "http://127.0.0.1:1/alerts", retries=2, backoff=0.05, timeout=0.2
    )
    hook.start()
    for n in range(5):
        hook.offer({"n": n})
    started = time.monotonic()
    hook.stop(timeout=3.0)
    assert time.monotonic() - started < 10.0
