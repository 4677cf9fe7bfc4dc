"""Wire protocol for the serve daemon: JSON lines over a local socket.

One request = one JSON object on one line; one response = one JSON
object on one line.  The only multi-line exchange is ``watch``, where
the daemon keeps the connection open and streams one event object per
line until the client disconnects or the daemon stops.

Addresses are Unix-domain socket paths by default (the daemon/ctl pair
is a local control plane, like ``docker.sock``); ``host:port`` strings
select TCP for platforms without ``AF_UNIX``.
"""

from __future__ import annotations

import json
import socket
import uuid
from typing import Any, Dict, Optional, Tuple

#: Default daemon control socket, relative to the working directory.
DEFAULT_SOCKET = ".repro-serve.sock"

#: Protocol schema version, checked in ``ping``.
PROTOCOL_VERSION = 1

#: Cap on one request/response line (a journal segment is the largest).
MAX_LINE = 64 * 1024 * 1024


class ProtocolError(Exception):
    """Malformed frame on the control socket."""


def mint_trace_id() -> str:
    """A fresh 32-hex request trace id.

    Minted client-side by :meth:`ServeClient.submit` (or daemon-side at
    admission when a submission arrives without one), so a single id
    links the client call, the daemon's lifecycle events, and the guest
    span forest in the obs archive.
    """
    return uuid.uuid4().hex


def is_tcp_address(address: str) -> bool:
    """``host:port`` means TCP; anything else is a unix socket path."""
    host, sep, port = address.rpartition(":")
    return bool(sep) and bool(host) and port.isdigit()


def _tcp_parts(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


def listen(address: str, backlog: int = 16) -> socket.socket:
    """Bind a listening control socket at ``address``."""
    if is_tcp_address(address):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(_tcp_parts(address))
    else:
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - windows
            raise ProtocolError(
                f"platform lacks AF_UNIX; use a host:port address "
                f"instead of {address!r}"
            )
        import os

        if os.path.exists(address):
            os.unlink(address)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(address)
    server.listen(backlog)
    return server


def connect(address: str, timeout: Optional[float] = 10.0) -> socket.socket:
    """Connect to the daemon at ``address`` (raises ``OSError``)."""
    if is_tcp_address(address):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        target: Any = _tcp_parts(address)
    else:
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - windows
            raise ProtocolError(
                f"platform lacks AF_UNIX; use a host:port address "
                f"instead of {address!r}"
            )
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        target = address
    try:
        sock.settimeout(timeout)
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    return sock


def close_quietly(reader, sock: socket.socket) -> None:
    """Close a connection's ``makefile`` reader (if any), then the
    socket, ignoring errors.  The reader goes first: until it is closed
    it keeps the socket's descriptor open."""
    for stream in (reader, sock):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Ship one JSON object as one line."""
    data = json.dumps(message, separators=(",", ":"), sort_keys=True)
    sock.sendall(data.encode("utf-8") + b"\n")


def recv_message(reader) -> Optional[Dict[str, Any]]:
    """Read one JSON line from a file-like reader; ``None`` on EOF."""
    line = reader.readline(MAX_LINE)
    if not line:
        return None
    if not line.endswith(b"\n") and len(line) >= MAX_LINE:
        raise ProtocolError(f"frame exceeds {MAX_LINE} bytes")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message
