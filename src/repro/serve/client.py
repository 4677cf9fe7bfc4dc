"""Client for the serve daemon's control socket (``repro ctl``).

Thin and stateless: every call opens one connection, sends one JSON
request line, and reads the response (``watch`` keeps its connection
open and yields streamed events).  Failures surface as typed
exceptions so the CLI can map them to exit codes:

* :class:`DaemonUnreachable` -- no daemon at the socket;
* :class:`UnknownJob` -- the daemon does not know the job id;
* :class:`SubmissionRejected` -- admission control said no (carries
  the rejection ``reason`` code);
* :class:`ServeClientError` -- anything else the daemon refused.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.serve import protocol


class ServeClientError(Exception):
    """The daemon answered, but refused the request."""

    def __init__(self, message: str, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class DaemonUnreachable(ServeClientError):
    """No daemon is listening at the control socket."""


class UnknownJob(ServeClientError):
    """The daemon has no job with the requested id."""


class SubmissionRejected(ServeClientError):
    """Admission control rejected the submission (see ``reason``)."""


class MetricsDisabled(ServeClientError):
    """The daemon runs without a metrics recorder (interval 0)."""


#: Daemon error reasons produced by admission control / validation.
_REJECTION_REASONS = {
    "queue-full",
    "tenant-in-flight",
    "tenant-budget",
    "shutting-down",
    "no-profile",
    "duplicate-id",
    "bad-request",
}


def _raise_for(response: Dict[str, Any]) -> None:
    reason = response.get("reason", "")
    message = response.get("error", "daemon refused the request")
    if reason == "unknown-job":
        raise UnknownJob(message, reason=reason)
    if reason == "no-metrics":
        raise MetricsDisabled(message, reason=reason)
    if reason in _REJECTION_REASONS:
        raise SubmissionRejected(message, reason=reason)
    raise ServeClientError(message, reason=reason)


class ServeClient:
    """One daemon address, any number of single-shot requests."""

    def __init__(
        self, address: str = protocol.DEFAULT_SOCKET, timeout: float = 30.0
    ) -> None:
        self.address = address
        self.timeout = timeout

    # -- plumbing -------------------------------------------------------------

    def _connect(self, timeout: Optional[float]):
        try:
            return protocol.connect(self.address, timeout=timeout)
        except OSError as exc:
            raise DaemonUnreachable(
                f"no serve daemon reachable at {self.address!r} ({exc}); "
                "start one with 'repro.cli serve'",
                reason="unreachable",
            ) from exc

    def request(
        self,
        op: str,
        transport_timeout: Optional[float] = -1.0,
        **params: Any,
    ) -> Dict[str, Any]:
        """One request/response round trip.  ``transport_timeout`` of
        ``None`` blocks indefinitely (long waits); the default uses the
        client's configured timeout."""
        if transport_timeout == -1.0:
            transport_timeout = self.timeout
        sock = self._connect(transport_timeout)
        reader = None
        try:
            protocol.send_message(sock, {"op": op, **params})
            reader = sock.makefile("rb")
            response = protocol.recv_message(reader)
        except OSError as exc:
            raise DaemonUnreachable(
                f"serve daemon at {self.address!r} dropped the "
                f"connection ({exc})",
                reason="unreachable",
            ) from exc
        finally:
            protocol.close_quietly(reader, sock)
        if response is None:
            raise DaemonUnreachable(
                f"serve daemon at {self.address!r} closed the connection "
                "without answering",
                reason="unreachable",
            )
        if not response.get("ok"):
            _raise_for(response)
        return response

    # -- operations ------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping", transport_timeout=5.0)

    def submit(
        self,
        app: str,
        scale: int = 2,
        attack: Optional[str] = None,
        guest: Any = None,
        tenant: str = "default",
        priority: int = 0,
        name: str = "",
        seed: Optional[int] = None,
        max_cycles: Optional[int] = None,
        job_timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit one job.  A ``trace_id`` is minted client-side when
        not supplied, carried through the daemon's queue and the guest
        journal, and echoed in the response's ``trace`` field."""
        job: Dict[str, Any] = {"app": app, "scale": scale}
        if attack is not None:
            job["attack"] = attack
        if guest is not None:
            job["guest"] = guest
        if name:
            job["name"] = name
        if seed is not None:
            job["seed"] = seed
        if max_cycles is not None:
            job["max_cycles"] = max_cycles
        if job_timeout is not None:
            job["timeout"] = job_timeout
        return self.request(
            "submit",
            job=job,
            tenant=tenant,
            priority=priority,
            trace=trace_id or protocol.mint_trace_id(),
        )

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        if job_id is None:
            return self.request("status")
        return self.request("status", id=job_id)

    def result(
        self,
        job_id: str,
        wait: bool = False,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        transport: Optional[float] = self.timeout
        if wait:
            transport = (timeout + 5.0) if timeout else None
        return self.request(
            "result",
            transport_timeout=transport,
            id=job_id,
            wait=wait,
            timeout=timeout,
        )

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("cancel", id=job_id)

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def metrics(self, format: str = "json") -> Any:
        """Service metrics: ``json`` (compact dict), ``series`` (full
        ring dump) or ``prom`` (Prometheus text exposition)."""
        response = self.request("metrics", format=format)
        if format == "prom":
            return response["text"]
        return response["metrics"]

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        transport = (timeout + 10.0) if timeout else None
        return self.request(
            "shutdown",
            transport_timeout=transport,
            drain=drain,
            timeout=timeout,
        )

    def watch(self, since: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield streamed daemon events until the daemon stops (or the
        consumer breaks out, closing the connection)."""
        sock = self._connect(None)
        reader = None
        try:
            protocol.send_message(sock, {"op": "watch", "since": since})
            reader = sock.makefile("rb")
            header = protocol.recv_message(reader)
            if header is None:
                raise DaemonUnreachable(
                    f"serve daemon at {self.address!r} closed the "
                    "connection without answering",
                    reason="unreachable",
                )
            if not header.get("ok"):
                _raise_for(header)
            while True:
                event = protocol.recv_message(reader)
                if event is None:
                    return
                yield event
        finally:
            protocol.close_quietly(reader, sock)
