"""Kernel subsystem state machines behind the semantic actions.

Each class holds the Python-side state of one subsystem (file system,
network stack, tty, signals, timers, futexes, task lifecycle, module
loader) and implements the methods that the catalog's registered
predicates/actions/slots call.  The ``rt`` argument threaded through is
the :class:`repro.kernel.runtime.KernelRuntime`.

Error returns follow Linux conventions: negative errno values
(-EAGAIN = -11, -EINTR = -4, -ECHILD = -10).

A blocking act (``*_block``) re-checks its own wait predicate before it
blocks, the way Linux re-checks the condition after ``prepare_to_wait``:
guest code runs between the predicate and the act, and a wakeup that
lands in that window (an interrupt cooking tty input, say) would
otherwise be lost and leave the task blocked for good.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel.objects import (
    Epoll,
    File,
    ITimer,
    Packet,
    Pipe,
    SignalNumbers,
    Socket,
    Task,
    TaskState,
    WaitQueue,
)

EAGAIN = -11
EINTR = -4
ECHILD = -10
EBADF = -9


# ---------------------------------------------------------------------------
# file system
# ---------------------------------------------------------------------------


class FsState:
    """VFS state: path classification, fd-table ops, pipes, poll scans."""

    _PROC_PREFIX = "/proc"
    _TTY_NAMES = ("/dev/tty", "/dev/console", "/dev/pts")

    def __init__(self) -> None:
        self.next_pipe_id = 1
        self.block_ios = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._read_counter = 0

    # -- classification --------------------------------------------------------

    def classify(self, path: str) -> str:
        if path.startswith(self._PROC_PREFIX):
            return "proc"
        if any(path.startswith(p) for p in self._TTY_NAMES):
            return "tty"
        if path.startswith("/dev/"):
            return "dev"
        return "ext4"

    def current_file(self, rt) -> Optional[File]:
        fd = rt.arg("fd")
        if fd is None:
            return None
        return rt.current.fd_table.get(fd)

    # -- open/close ---------------------------------------------------------------

    def open_op(self, rt) -> str:
        kind = self.classify(str(rt.arg("path", "/")))
        return {
            "ext4": "ext4_file_open",
            "proc": "proc_reg_open",
            "tty": "tty_open",
            "dev": "chrdev_open",
        }[kind]

    def lookup_op(self, rt) -> str:
        path = str(rt.arg("path", "/"))
        if path.startswith(self._PROC_PREFIX):
            return "proc_root_lookup"
        return "ext4_lookup"

    def do_open(self, rt) -> None:
        path = str(rt.arg("path", "/"))
        kind = self.classify(path)
        fd = rt.current.alloc_fd(File(kind, path))
        rt.ret(fd)

    def release_op(self, rt) -> str:
        file = self.current_file(rt)
        kind = file.kind if file is not None else "ext4"
        return {
            "ext4": "ext4_release_file",
            "proc": "proc_reg_release",
            "tty": "tty_release",
            "pipe_r": "pipe_release",
            "pipe_w": "pipe_release",
            "socket": "sock_close",
            "dev": "chrdev_release",
            "epoll": "eventpoll_release",
        }[kind]

    # -- read/write dispatch ---------------------------------------------------------

    def read_op(self, rt) -> str:
        file = self.current_file(rt)
        kind = file.kind if file is not None else "ext4"
        return {
            "ext4": "do_sync_read",
            "proc": "proc_reg_read",
            "tty": "tty_read",
            "pipe_r": "pipe_read",
            "pipe_w": "pipe_read",
            "socket": "sock_aio_read",
            "dev": "chrdev_read",
            "epoll": "do_sync_read",
        }[kind]

    def write_op(self, rt) -> str:
        file = self.current_file(rt)
        kind = file.kind if file is not None else "ext4"
        return {
            "ext4": "do_sync_write",
            "proc": "do_sync_write",
            "tty": "tty_write",
            "pipe_r": "pipe_write",
            "pipe_w": "pipe_write",
            "socket": "sock_aio_write",
            "dev": "chrdev_write",
            "epoll": "do_sync_write",
        }[kind]

    def aio_read_op(self, rt) -> str:
        return "generic_file_aio_read"

    def aio_write_op(self, rt) -> str:
        file = self.current_file(rt)
        if file is not None and file.kind == "socket":
            return "sock_aio_write"
        return "ext4_file_write"

    def dirty_inode_op(self, rt) -> str:
        file = self.current_file(rt)
        if file is None or file.kind == "ext4":
            return "ext4_dirty_inode"
        return "generic_dirty_inode"

    def write_begin_op(self, rt) -> str:
        return "ext4_da_write_begin"

    def write_end_op(self, rt) -> str:
        return "ext4_da_write_end"

    def readdir_op(self, rt) -> str:
        file = self.current_file(rt)
        if file is not None and file.kind == "proc":
            return "proc_pid_readdir"
        return "ext4_readdir"

    def ioctl_op(self, rt) -> str:
        file = self.current_file(rt)
        kind = file.kind if file is not None else "dev"
        return {
            "tty": "tty_ioctl",
            "socket": "sock_ioctl",
            "dev": "chrdev_ioctl",
            "ext4": "ext4_ioctl",
            "proc": "ext4_ioctl",
            "pipe_r": "ext4_ioctl",
            "pipe_w": "ext4_ioctl",
            "epoll": "ext4_ioctl",
        }[kind]

    def need_readpage(self, rt) -> bool:
        # Every fourth read misses the page cache and goes to the disk path.
        self._read_counter += 1
        return self._read_counter % 4 == 0

    def do_file_read(self, rt) -> None:
        count = int(rt.arg("count", 1024))
        self.bytes_read += count
        rt.ret(count)

    def do_file_write(self, rt) -> None:
        count = int(rt.arg("count", 1024))
        self.bytes_written += count
        rt.ret(count)

    def do_lseek(self, rt) -> None:
        file = self.current_file(rt)
        if file is None:
            rt.ret(EBADF)
            return
        file.pos = int(rt.arg("offset", 0))
        rt.ret(file.pos)

    def do_dup2(self, rt) -> None:
        task = rt.current
        old = rt.arg("oldfd")
        new = rt.arg("newfd")
        file = task.fd_table.get(old)
        if file is None:
            rt.ret(EBADF)
            return
        displaced = task.fd_table.get(new)
        if displaced is not None and displaced is not file:
            self.release_file(rt, displaced)
        task.fd_table[new] = file
        file.refcount += 1
        rt.ret(new)

    def do_close_fd(self, rt) -> None:
        """Remove the fd table entry (the release op already ran)."""
        fd = rt.arg("fd")
        rt.current.fd_table.pop(fd, None)
        rt.ret(0)

    def do_fcntl(self, rt) -> None:
        file = self.current_file(rt)
        if file is not None and rt.arg("cmd") == "setfl_nonblock":
            if file.kind == "socket" and file.obj is not None:
                file.obj.nonblocking = True
            file.flags.add("nonblock")
        rt.ret(0)

    # -- pipes --------------------------------------------------------------------

    def pipe_create(self, rt) -> None:
        pipe = Pipe(self.next_pipe_id)
        self.next_pipe_id += 1
        task = rt.current
        rfd = task.alloc_fd(File("pipe_r", f"pipe:{pipe.ident}", pipe))
        wfd = task.alloc_fd(File("pipe_w", f"pipe:{pipe.ident}", pipe))
        rt.ret((rfd, wfd))

    def _pipe(self, rt) -> Optional[Pipe]:
        file = self.current_file(rt)
        return file.obj if file is not None else None

    def pipe_read_wait(self, rt) -> bool:
        pipe = self._pipe(rt)
        if pipe is None:
            return False
        return (
            pipe.count == 0
            and pipe.writers > 0
            and not rt.signals.pending_raw(rt.current)
        )

    def pipe_read_block(self, rt) -> None:
        if self.pipe_read_wait(rt):
            rt.block_current(self._pipe(rt).wait_read)

    def pipe_do_read(self, rt) -> None:
        pipe = self._pipe(rt)
        if pipe is None:
            rt.ret(EBADF)
            return
        count = int(rt.arg("count", 1024))
        if pipe.count == 0:
            rt.ret(0 if pipe.writers == 0 else EINTR)
            return
        n = min(count, pipe.count)
        pipe.count -= n
        rt.wake_queue(pipe.wait_write)
        rt.ret(n)

    def pipe_write_wait(self, rt) -> bool:
        pipe = self._pipe(rt)
        if pipe is None:
            return False
        count = int(rt.arg("count", 1024))
        return (
            pipe.count + count > Pipe.CAPACITY
            and pipe.readers > 0
            and not rt.signals.pending_raw(rt.current)
        )

    def pipe_write_block(self, rt) -> None:
        if self.pipe_write_wait(rt):
            rt.block_current(self._pipe(rt).wait_write)

    def pipe_do_write(self, rt) -> None:
        pipe = self._pipe(rt)
        if pipe is None:
            rt.ret(EBADF)
            return
        if pipe.readers == 0:
            rt.ret(-32)  # -EPIPE
            return
        count = int(rt.arg("count", 1024))
        pipe.count += count
        self.bytes_written += count
        rt.wake_queue(pipe.wait_read)
        rt.ret(count)

    # -- epoll --------------------------------------------------------------------

    def epoll_create(self, rt) -> None:
        ep = Epoll(self.next_pipe_id)
        self.next_pipe_id += 1
        fd = rt.current.alloc_fd(File("epoll", f"eventpoll:{ep.ident}", ep))
        rt.ret(fd)

    def _epoll(self, rt) -> Optional[Epoll]:
        file = self.current_file(rt)  # the "fd" argument is the epfd
        if file is not None and isinstance(file.obj, Epoll):
            return file.obj
        return None

    def epoll_ctl(self, rt) -> None:
        ep = self._epoll(rt)
        if ep is None:
            rt.ret(EBADF)
            return
        target = rt.arg("target_fd")
        op = rt.arg("op", "add")
        if op == "add" and target not in ep.watched:
            ep.watched.append(target)
        elif op == "del" and target in ep.watched:
            ep.watched.remove(target)
        rt.ret(0)

    def epoll_begin_wait(self, rt) -> None:
        """Seed the generic poll-scan state from the eventpoll set."""
        ep = self._epoll(rt)
        rt.scratch["poll"] = {
            "fds": list(ep.watched) if ep is not None else [],
            "idx": 0,
            "events": 0,
            "deadline": None,
            "timeout": rt.arg("timeout_cycles"),
            "registered": [],
            "current": None,
        }

    def pipe_release(self, rt) -> None:
        file = self.current_file(rt)
        if file is None or not isinstance(file.obj, Pipe):
            return
        self.release_file(rt, file)

    @staticmethod
    def release_file(rt, file: File) -> None:
        """Drop one reference; tear the object down on the last close."""
        file.refcount -= 1
        if file.refcount > 0:
            return
        obj = file.obj
        if isinstance(obj, Pipe):
            if file.kind == "pipe_r":
                obj.readers = max(0, obj.readers - 1)
            else:
                obj.writers = max(0, obj.writers - 1)
            rt.wake_queue(obj.wait_read)
            rt.wake_queue(obj.wait_write)
        elif isinstance(obj, Socket):
            if obj.bound_port is not None and rt.net.ports.get(obj.bound_port) is obj:
                del rt.net.ports[obj.bound_port]
            if obj in rt.net.taps:
                rt.net.taps.remove(obj)
            rt.wake_queue(obj.wait_rx)
            rt.wake_queue(obj.wait_accept)

    # -- poll/select scan machinery ---------------------------------------------------

    _POLLABLE = ("pipe_r", "pipe_w", "socket", "tty")

    def _poll_state(self, rt) -> Dict[str, Any]:
        st = rt.scratch.get("poll")
        if st is None:
            timeout = rt.arg("timeout_cycles")
            st = {
                "fds": list(rt.arg("fds", [])),
                "idx": 0,
                "events": 0,
                "deadline": None,
                "timeout": timeout,
                "registered": [],
                "current": None,
            }
            rt.scratch["poll"] = st
        return st

    def _poll_unregister(self, rt, st: Dict[str, Any]) -> None:
        for queue in st["registered"]:
            queue.remove(rt.current)
        st["registered"] = []
        rt.current.sleep_deadline = None

    def poll_wait_loop(self, rt) -> bool:
        st = self._poll_state(rt)
        self._poll_unregister(rt, st)
        now = rt.cycles
        timed_out = st["deadline"] is not None and now >= st["deadline"]
        if st["events"] > 0 or timed_out or rt.signals.pending_raw(rt.current):
            if st["events"] > 0:
                rt.ret(st["events"])
            elif timed_out:
                rt.ret(0)
            else:
                rt.ret(EINTR)
            rt.scratch.pop("poll", None)
            return False
        # zero-timeout polls scan exactly once
        if st.get("scanned") and st["timeout"] == 0:
            rt.ret(0)
            rt.scratch.pop("poll", None)
            return False
        return True

    def poll_rescan_init(self, rt) -> None:
        st = self._poll_state(rt)
        st["idx"] = 0
        st["events"] = 0
        st["scanned"] = True

    def poll_more_fds(self, rt) -> bool:
        st = self._poll_state(rt)
        return st["idx"] < len(st["fds"])

    def poll_next_fd(self, rt) -> None:
        st = self._poll_state(rt)
        fd = st["fds"][st["idx"]]
        st["idx"] += 1
        st["current"] = rt.current.fd_table.get(fd)

    def poll_fd_pollable(self, rt) -> bool:
        st = self._poll_state(rt)
        file = st["current"]
        if file is None:
            return False
        if file.kind in self._POLLABLE:
            return True
        # regular files are always ready
        st["events"] += 1
        return False

    def poll_op(self, rt) -> str:
        st = self._poll_state(rt)
        file = st["current"]
        kind = file.kind if file is not None else "tty"
        return {
            "pipe_r": "pipe_poll",
            "pipe_w": "pipe_poll",
            "socket": "sock_poll",
            "tty": "tty_poll",
            "dev": "chrdev_poll",
        }.get(kind, "tty_poll")

    def poll_record(self, rt) -> None:
        st = self._poll_state(rt)
        file = st["current"]
        if file is None:
            return
        ready = False
        obj = file.obj
        if file.kind == "pipe_r" and isinstance(obj, Pipe):
            ready = obj.count > 0 or obj.writers == 0
        elif file.kind == "pipe_w" and isinstance(obj, Pipe):
            ready = obj.count < Pipe.CAPACITY
        elif file.kind == "socket" and isinstance(obj, Socket):
            ready = (
                obj.rx_bytes > 0
                or obj.rx_packets > 0
                or bool(obj.accept_queue)
            )
        elif file.kind == "tty":
            ready = rt.tty.cooked > 0
        elif file.kind == "dev":
            ready = True
        if ready:
            st["events"] += 1

    def poll_should_block(self, rt) -> bool:
        st = self._poll_state(rt)
        if st["events"] > 0:
            return False
        if st["timeout"] == 0:
            return False
        if st["deadline"] is None and st["timeout"] is not None:
            st["deadline"] = rt.cycles + int(st["timeout"])
        return True

    def poll_block(self, rt) -> None:
        st = self._poll_state(rt)
        task = rt.current
        for fd in st["fds"]:
            file = task.fd_table.get(fd)
            if file is None:
                continue
            obj = file.obj
            queue: Optional[WaitQueue] = None
            if isinstance(obj, Pipe):
                queue = obj.wait_read if file.kind == "pipe_r" else obj.wait_write
            elif isinstance(obj, Socket):
                queue = obj.wait_accept if obj.listening else obj.wait_rx
            elif file.kind == "tty":
                queue = rt.tty.wait_input
            if queue is not None:
                queue.add(task)
                st["registered"].append(queue)
        task.state = TaskState.BLOCKED
        task.blocked_on = st["registered"][0] if st["registered"] else None
        if st["deadline"] is not None:
            task.sleep_deadline = st["deadline"]


# ---------------------------------------------------------------------------
# network stack
# ---------------------------------------------------------------------------


class NetState:
    """Sockets, port table, NIC receive ring, loopback backlog, taps."""

    def __init__(self) -> None:
        self.next_sock_id = 1
        self.ports: Dict[int, Socket] = {}
        self.conn_map: Dict[int, Socket] = {}
        self.nic_queue: List[Tuple[int, int, Packet]] = []  # heap by arrival
        self._nic_seq = 0
        self.backlog: List[Packet] = []
        self.taps: List[Socket] = []
        self.current_rx: Optional[Packet] = None
        self.tx_bytes = 0
        self.rx_delivered = 0
        self.dropped = 0

    # -- injection (used by workload drivers / the simulated world) -------------

    def inject(self, packet: Packet) -> None:
        heapq.heappush(self.nic_queue, (packet.arrival_cycles, self._nic_seq, packet))
        self._nic_seq += 1

    def nic_irq_due(self, now: int) -> bool:
        return bool(self.nic_queue) and self.nic_queue[0][0] <= now

    def next_nic_event(self) -> Optional[int]:
        return self.nic_queue[0][0] if self.nic_queue else None

    # -- socket lifecycle ---------------------------------------------------------

    def _sock(self, rt) -> Optional[Socket]:
        file = rt.fs.current_file(rt)
        if file is not None and isinstance(file.obj, Socket):
            return file.obj
        return None

    def create_op(self, rt) -> str:
        family = rt.arg("family", "inet")
        return {
            "inet": "inet_create",
            "packet": "packet_create",
            "unix": "unix_create",
        }[family]

    def do_create(self, rt) -> None:
        sock = Socket(
            self.next_sock_id,
            rt.arg("family", "inet"),
            rt.arg("stype", "stream"),
        )
        self.next_sock_id += 1
        if rt.arg("nonblocking", False):
            sock.nonblocking = True
        rt.scratch["new_sock"] = sock

    def do_install_fd(self, rt) -> None:
        if rt.scratch.pop("accept_failed", False):
            rt.ret(EAGAIN)
            return
        sock = rt.scratch.pop("new_sock", None)
        if sock is None:
            rt.ret(EBADF)
            return
        fd = rt.current.alloc_fd(File("socket", f"socket:{sock.ident}", sock))
        rt.ret(fd)

    def bind_op(self, rt) -> str:
        family = rt.arg("family", None)
        if family is None:
            sock = self._sock(rt)
            family = sock.family if sock is not None else "inet"
        return {
            "inet": "inet_bind",
            "packet": "packet_bind",
            "unix": "unix_bind",
        }[family]

    def get_port_op(self, rt) -> str:
        sock = self._sock(rt)
        if sock is not None and sock.stype == "dgram":
            return "udp_v4_get_port"
        return "inet_csk_get_port"

    def do_bind(self, rt) -> None:
        sock = self._sock(rt)
        if sock is None:
            rt.ret(EBADF)
            return
        port = int(rt.arg("port", 0))
        sock.bound_port = port
        self.ports[port] = sock
        rt.ret(0)

    def do_autobind(self, rt) -> None:
        """Ephemeral-port autobind on first sendmsg (client sockets)."""
        sock = self._sock(rt)
        if sock is None or sock.bound_port is not None:
            return
        port = 32768 + (sock.ident % 28000)
        sock.bound_port = port
        self.ports.setdefault(port, sock)

    def do_tap_enable(self, rt) -> None:
        sock = self._sock(rt)
        if sock is not None and sock not in self.taps:
            self.taps.append(sock)

    def do_tap_disable(self, rt) -> None:
        sock = self._sock(rt)
        if sock in self.taps:
            self.taps.remove(sock)

    def do_listen(self, rt) -> None:
        sock = self._sock(rt)
        if sock is None:
            rt.ret(EBADF)
            return
        sock.listening = True
        rt.ret(0)

    # -- accept ----------------------------------------------------------------------

    def accept_wait(self, rt) -> bool:
        sock = self._sock(rt)
        if sock is None:
            return False
        return (
            not sock.accept_queue
            and not sock.nonblocking
            and not rt.signals.pending_raw(rt.current)
        )

    def accept_block(self, rt) -> None:
        if self.accept_wait(rt):
            rt.block_current(self._sock(rt).wait_accept)

    def do_accept(self, rt) -> None:
        sock = self._sock(rt)
        if sock is None or not sock.accept_queue:
            rt.scratch["accept_failed"] = True
            return
        child = sock.accept_queue.pop(0)
        rt.scratch["new_sock"] = child

    # -- connect ----------------------------------------------------------------------

    def connect_op(self, rt) -> str:
        sock = self._sock(rt)
        family = sock.family if sock is not None else "inet"
        stype = sock.stype if sock is not None else "stream"
        if family == "unix":
            return "unix_stream_connect"
        if stype == "dgram":
            return "ip4_datagram_connect"
        return "inet_stream_connect"

    def do_connect(self, rt) -> None:
        sock = self._sock(rt)
        if sock is None:
            rt.ret(EBADF)
            return
        sock.connected = True
        # register the flow so injected response packets route back here
        conn_id = rt.arg("conn_id")
        if conn_id is not None:
            self.conn_map[conn_id] = sock
        rt.ret(0)

    # -- send/recv ---------------------------------------------------------------------

    def sendmsg_op(self, rt) -> str:
        sock = self._sock(rt)
        family = sock.family if sock is not None else "inet"
        stype = sock.stype if sock is not None else "stream"
        if family == "packet":
            return "packet_sendmsg"
        if family == "unix":
            return "unix_stream_sendmsg"
        return "tcp_sendmsg" if stype == "stream" else "udp_sendmsg"

    def do_send(self, rt) -> None:
        count = int(rt.arg("count", 512))
        self.tx_bytes += count
        rt.ret(count)

    def do_send_local(self, rt) -> None:
        self.do_send(rt)

    def recvmsg_op(self, rt) -> str:
        sock = self._sock(rt)
        family = sock.family if sock is not None else "inet"
        stype = sock.stype if sock is not None else "stream"
        if family == "packet":
            return "packet_recvmsg"
        if family == "unix":
            return "unix_stream_recvmsg"
        return "tcp_recvmsg" if stype == "stream" else "sock_common_recvmsg"

    def rx_wait(self, rt) -> bool:
        sock = self._sock(rt)
        if sock is None:
            return False
        return (
            sock.rx_bytes == 0
            and sock.rx_packets == 0
            and not sock.shut_down
            and not sock.nonblocking
            and not rt.signals.pending_raw(rt.current)
        )

    def rx_block(self, rt) -> None:
        if self.rx_wait(rt):
            rt.block_current(self._sock(rt).wait_rx)

    def do_recv(self, rt) -> None:
        sock = self._sock(rt)
        if sock is None:
            rt.ret(EBADF)
            return
        if sock.rx_bytes == 0 and sock.rx_packets == 0:
            rt.ret(EAGAIN if sock.nonblocking else EINTR)
            return
        count = int(rt.arg("count", 1024))
        n = min(count, sock.rx_bytes) if sock.rx_bytes else count
        sock.rx_bytes = max(0, sock.rx_bytes - n)
        if sock.rx_packets:
            sock.rx_packets -= 1
        self.rx_delivered += 1
        rt.ret(n)

    def do_shutdown(self, rt) -> None:
        sock = self._sock(rt)
        if sock is not None:
            sock.shut_down = True
            rt.wake_queue(sock.wait_rx)
        rt.ret(0)

    def release_op(self, rt) -> str:
        sock = self._sock(rt)
        family = sock.family if sock is not None else "inet"
        return {
            "inet": "inet_release",
            "packet": "packet_release",
            "unix": "unix_release",
        }[family]

    def do_release(self, rt) -> None:
        file = rt.fs.current_file(rt)
        if file is None or not isinstance(file.obj, Socket):
            return
        rt.fs.release_file(rt, file)

    def poll_proto_op(self, rt) -> str:
        st = rt.scratch.get("poll") or {}
        file = st.get("current")
        sock = file.obj if file is not None and isinstance(file.obj, Socket) else None
        if sock is None:
            return "tcp_poll"
        if sock.family == "unix":
            return "unix_poll"
        return "tcp_poll" if sock.stype == "stream" else "datagram_poll"

    def xmit_op(self, rt) -> str:
        if rt.arg("local", False):
            return "loopback_xmit"
        return "e1000_xmit_frame"

    def nic_tx(self, rt) -> None:
        pass  # accounting already done in do_send

    # -- receive path (interrupt context) ------------------------------------------

    def nic_has_rx(self, rt) -> bool:
        return self.nic_irq_due(rt.cycles)

    def nic_pop(self, rt) -> None:
        _, _, packet = heapq.heappop(self.nic_queue)
        self.current_rx = packet
        rt.refresh_next_event()

    def backlog_enqueue(self, rt) -> None:
        if self.current_rx is not None:
            self.backlog.append(self.current_rx)

    def backlog_nonempty(self, rt) -> bool:
        return bool(self.backlog)

    def backlog_pop(self, rt) -> None:
        self.current_rx = self.backlog.pop(0)

    def tap_active(self, rt) -> bool:
        return bool(self.taps) and self.current_rx is not None

    def tap_deliver(self, rt) -> None:
        packet = self.current_rx
        if packet is None:
            return
        for sock in self.taps:
            sock.rx_packets += 1
            sock.rx_bytes += packet.nbytes
            rt.wake_queue(sock.wait_rx)

    def proto_rcv_op(self, rt) -> str:
        packet = self.current_rx
        if packet is not None and packet.kind in ("syn", "data"):
            return "tcp_v4_rcv"
        return "udp_rcv"

    def pkt_is_syn(self, rt) -> bool:
        return self.current_rx is not None and self.current_rx.kind == "syn"

    def pkt_is_data(self, rt) -> bool:
        return self.current_rx is not None and self.current_rx.kind == "data"

    def enqueue_accept(self, rt) -> None:
        packet = self.current_rx
        if packet is None:
            return
        listener = self.ports.get(packet.port)
        if listener is None or not listener.listening:
            self.dropped += 1
            return
        child = Socket(self.next_sock_id, "inet", "stream")
        self.next_sock_id += 1
        child.connected = True
        conn_id = getattr(packet, "conn_id", None)
        if conn_id is not None:
            self.conn_map[conn_id] = child
        listener.accept_queue.append(child)
        rt.wake_queue(listener.wait_accept)

    def deliver(self, rt) -> None:
        packet = self.current_rx
        if packet is None:
            return
        target: Optional[Socket] = None
        conn_id = getattr(packet, "conn_id", None)
        if conn_id is not None and conn_id in self.conn_map:
            target = self.conn_map[conn_id]
        else:
            target = self.ports.get(packet.port)
        if target is None:
            self.dropped += 1
            return
        target.rx_bytes += packet.nbytes
        target.rx_packets += 1
        rt.wake_queue(target.wait_rx)


# ---------------------------------------------------------------------------
# tty
# ---------------------------------------------------------------------------


class TtyState:
    """Console/pty line discipline state."""

    def __init__(self) -> None:
        #: (due_cycles, nchars) keystroke events injected by drivers
        self.input_events: List[Tuple[int, int, int]] = []
        self._seq = 0
        self.raw = 0
        self.cooked = 0
        self.output_bytes = 0
        self.pty_bytes = 0
        self.wait_input = WaitQueue("tty:input")
        #: observers notified on cook (the KBeast keylogger hooks here)
        self.sniffers: List[Callable[[Any, int], None]] = []

    def inject_keystrokes(self, due_cycles: int, nchars: int) -> None:
        heapq.heappush(self.input_events, (due_cycles, self._seq, nchars))
        self._seq += 1

    def kbd_irq_due(self, now: int) -> bool:
        return bool(self.input_events) and self.input_events[0][0] <= now

    def next_kbd_event(self) -> Optional[int]:
        return self.input_events[0][0] if self.input_events else None

    def on_input(self, rt) -> None:
        if self.input_events:
            _, _, nchars = heapq.heappop(self.input_events)
            self.raw += nchars
            rt.refresh_next_event()

    def cook(self, rt) -> None:
        moved = self.raw
        self.raw = 0
        self.cooked += moved
        for sniffer in self.sniffers:
            sniffer(rt, moved)
        rt.wake_queue(self.wait_input)

    def read_wait(self, rt) -> bool:
        return self.cooked == 0 and not rt.signals.pending_raw(rt.current)

    def read_block(self, rt) -> None:
        if self.read_wait(rt):
            rt.block_current(self.wait_input)

    def do_read(self, rt) -> None:
        if self.cooked == 0:
            rt.ret(EINTR)
            return
        count = int(rt.arg("count", 256))
        n = min(count, self.cooked)
        self.cooked -= n
        rt.ret(n)

    def do_write(self, rt) -> None:
        count = int(rt.arg("count", 256))
        self.output_bytes += count
        rt.ret(count)

    def out_op(self, rt) -> str:
        file = rt.fs.current_file(rt)
        if file is not None and "pts" in file.name:
            return "pty_write"
        return "con_write"

    def pty_forward(self, rt) -> None:
        self.pty_bytes += int(rt.arg("count", 256))


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------


class SignalState:
    """Signal registration, queueing and delivery bookkeeping."""

    def pending(self, task: Task) -> bool:
        return bool(task.pending_signals) and not task.in_signal_handler

    @staticmethod
    def pending_raw(task: Task) -> bool:
        return bool(task.pending_signals) and not task.in_signal_handler

    def do_sigaction(self, rt) -> None:
        signum = int(rt.arg("signum", SignalNumbers.SIGALRM))
        handler = rt.arg("handler")
        if handler is None:
            rt.current.signal_handlers.pop(signum, None)
        else:
            rt.current.signal_handlers[signum] = handler
        rt.ret(0)

    def stage_kill(self, rt) -> None:
        target = rt.tasks.get(int(rt.arg("pid", 0)))
        sig = int(rt.arg("signum", SignalNumbers.SIGTERM))
        rt.pending_signal_op = (target, sig)

    def stage_child_exit(self, rt) -> None:
        parent = rt.current.parent
        rt.pending_signal_op = (parent, SignalNumbers.SIGCHLD)

    def queue_staged(self, rt) -> None:
        op = rt.pending_signal_op
        rt.pending_signal_op = None
        if op is None:
            return
        task, sig = op
        if task is None:
            return
        self.queue(rt, task, sig)

    def queue(self, rt, task: Task, sig: int) -> None:
        task.pending_signals.append(sig)
        if task.state in (TaskState.BLOCKED, TaskState.SLEEPING):
            rt.wake_task(task)

    def dequeue(self, rt) -> None:
        task = rt.current
        # kept on the task, not the syscall scratch: signal delivery also
        # happens on the interrupt-return path where no syscall is live
        if task.pending_signals:
            task.delivering_signal = task.pending_signals.pop(0)
        else:
            task.delivering_signal = None

    def delivering_has_handler(self, rt) -> bool:
        sig = rt.current.delivering_signal
        return sig is not None and sig in rt.current.signal_handlers

    def push_handler(self, rt) -> None:
        sig = rt.current.delivering_signal
        factory = rt.current.signal_handlers.get(sig)
        if factory is None:
            return
        rt.push_driver(rt.current, factory())
        rt.current.in_signal_handler = True

    def delivering_is_fatal(self, rt) -> bool:
        sig = rt.current.delivering_signal
        if sig is None or sig in rt.current.signal_handlers:
            return False
        return sig in (SignalNumbers.SIGKILL, SignalNumbers.SIGTERM)

    def mark_fatal(self, rt) -> None:
        rt.current.exit_code = 128 + int(rt.current.delivering_signal or 0)

    def do_sigreturn(self, rt) -> None:
        task = rt.current
        if len(task.drivers) > 1:
            task.drivers.pop()
        task.in_signal_handler = False
        rt.ret(0)

    def do_pause(self, rt) -> None:
        rt.current.state = TaskState.BLOCKED

    def pause_wait(self, rt) -> bool:
        return not rt.current.pending_signals


# ---------------------------------------------------------------------------
# time
# ---------------------------------------------------------------------------


class TimeState:
    """Sleeps, interval timers and alarms, driven by the timer softirq."""

    def __init__(self) -> None:
        self.fired: List[Tuple[Task, int]] = []
        self.jiffies = 0

    def sleep_current(self, rt, cycles: int) -> None:
        task = rt.current
        task.sleep_deadline = rt.cycles + max(1, cycles)
        task.state = TaskState.SLEEPING

    def still_sleeping(self, rt) -> bool:
        task = rt.current
        if task.state == TaskState.RUNNING:
            return False
        if (
            task.sleep_deadline is not None
            and rt.cycles >= task.sleep_deadline
        ):
            task.sleep_deadline = None
            task.state = TaskState.RUNNING
            return False
        if self.pending_signal_break(rt, task):
            task.state = TaskState.RUNNING
            return False
        return True

    @staticmethod
    def pending_signal_break(rt, task: Task) -> bool:
        return bool(task.pending_signals) and not task.in_signal_handler

    def set_itimer(self, rt, interval: int) -> None:
        task = rt.current
        if interval <= 0:
            task.itimer = None
        else:
            task.itimer = ITimer(next_fire=rt.cycles + interval, interval=interval)

    def set_alarm(self, rt, delay: int) -> None:
        task = rt.current
        task.alarm_deadline = (rt.cycles + delay) if delay > 0 else None

    def run_expired(self, rt) -> None:
        self.jiffies += 1
        now = rt.cycles
        for task in list(rt.tasks.values()):
            if (
                task.sleep_deadline is not None
                and now >= task.sleep_deadline
                and task.state in (TaskState.SLEEPING, TaskState.BLOCKED)
            ):
                task.sleep_deadline = None
                rt.wake_task(task)
            if task.itimer is not None and now >= task.itimer.next_fire:
                task.itimer.next_fire = now + task.itimer.interval
                self.fired.append((task, SignalNumbers.SIGALRM))
            if task.alarm_deadline is not None and now >= task.alarm_deadline:
                task.alarm_deadline = None
                self.fired.append((task, SignalNumbers.SIGALRM))

    def pop_fired(self, rt) -> bool:
        if not self.fired:
            return False
        rt.pending_signal_op = self.fired.pop(0)
        return True

    def next_deadline(self, rt) -> Optional[int]:
        deadlines = [
            task.sleep_deadline
            for task in rt.tasks.values()
            if task.sleep_deadline is not None
        ]
        deadlines += [
            task.itimer.next_fire
            for task in rt.tasks.values()
            if task.itimer is not None
        ]
        deadlines += [
            task.alarm_deadline
            for task in rt.tasks.values()
            if task.alarm_deadline is not None
        ]
        return min(deadlines) if deadlines else None


# ---------------------------------------------------------------------------
# futexes
# ---------------------------------------------------------------------------


class FutexState:
    """Minimal futex wait/wake."""

    def __init__(self) -> None:
        self.queues: Dict[Any, WaitQueue] = {}

    def _queue(self, key: Any) -> WaitQueue:
        queue = self.queues.get(key)
        if queue is None:
            queue = WaitQueue(f"futex:{key}")
            self.queues[key] = queue
        return queue

    def prepare_wait(self, rt) -> None:
        key = rt.arg("key", 0)
        self._queue(key).add(rt.current)

    def wait_cond(self, rt) -> bool:
        key = rt.arg("key", 0)
        task = rt.current
        return task in self._queue(key).waiters and not SignalState.pending_raw(task)

    def block(self, rt) -> None:
        rt.current.state = TaskState.BLOCKED
        rt.current.blocked_on = self._queue(rt.arg("key", 0))

    def wake(self, rt) -> None:
        key = rt.arg("key", 0)
        queue = self._queue(key)
        rt.wake_queue(queue)
        queue.waiters.clear()
        rt.ret(1)


# ---------------------------------------------------------------------------
# task lifecycle
# ---------------------------------------------------------------------------


class TasksApi:
    """fork/execve/exit/wait semantics, delegating to the runtime core."""

    def create_child(self, rt) -> None:
        factory = rt.arg("child")
        comm = rt.arg("comm", rt.current.comm)
        child = rt.create_task(comm, factory, parent=rt.current)
        # fork semantics: the child shares the parent's open files
        for fd, file in rt.current.fd_table.items():
            child.fd_table[fd] = file
            file.refcount += 1
        child.next_fd = rt.current.next_fd
        rt.scratch["child_pid"] = child.pid

    def fork_ret(self, rt) -> None:
        rt.ret(rt.scratch.get("child_pid", -1))

    def execve(self, rt) -> None:
        factory = rt.arg("driver")
        comm = rt.arg("comm", rt.current.comm)
        task = rt.current
        task.comm = comm
        if factory is not None:
            rt.replace_driver(task, factory())
        rt.publish_current_task(task)
        rt.ret(0)

    def exit_current(self, rt) -> None:
        task = rt.current
        task.exit_code = (
            int(rt.arg("code", 0)) if task.exit_code is None else task.exit_code
        )
        task.state = TaskState.ZOMBIE
        task.finished = True
        parent = task.parent
        if parent is not None:
            rt.wake_queue(parent.wait_child)
        rt.sched.need_resched = True

    def close_fds(self, rt) -> None:
        task = rt.current
        for file in list(task.fd_table.values()):
            rt.fs.release_file(rt, file)
        task.fd_table.clear()

    def wait_no_child(self, rt) -> bool:
        task = rt.current
        if not task.children:
            return False
        zombies = [c for c in task.children if c.state == TaskState.ZOMBIE]
        return not zombies and not SignalState.pending_raw(task)

    def wait_block(self, rt) -> None:
        if self.wait_no_child(rt):
            rt.block_current(rt.current.wait_child)

    def reap_child(self, rt) -> None:
        task = rt.current
        if not task.children:
            rt.ret(ECHILD)
            return
        zombies = [c for c in task.children if c.state == TaskState.ZOMBIE]
        if not zombies:
            rt.ret(EINTR)
            return
        child = zombies[0]
        task.children.remove(child)
        rt.tasks.pop(child.pid, None)
        rt.release_kstack(child.kstack_top)
        rt.ret(child.pid)


# ---------------------------------------------------------------------------
# module loading
# ---------------------------------------------------------------------------


@dataclass
class ModuleSpec:
    """What ``init_module`` needs: a name, code, and an init hook."""

    name: str
    functions: Sequence[Any]
    init: Optional[Callable[[Any], None]] = None
    description: str = ""


class ModulesApi:
    """sys_init_module / sys_delete_module semantics."""

    def __init__(self) -> None:
        self.loaded: List[str] = []

    def load(self, rt) -> None:
        spec: Optional[ModuleSpec] = rt.arg("module_spec")
        if spec is None:
            rt.ret(-22)  # -EINVAL
            return
        rt.image.load_module(spec.name, spec.functions)
        self.loaded.append(spec.name)
        if spec.init is not None:
            spec.init(rt)
        rt.on_module_loaded(spec.name)
        rt.ret(0)

    def unload(self, rt) -> None:
        name = rt.arg("name")
        if name in rt.image.modules:
            rt.image.hide_module(name)
        rt.ret(0)
