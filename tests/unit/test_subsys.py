"""Subsystem state-machine unit tests with a minimal stub runtime."""

import pytest

from repro.kernel.objects import (
    File,
    Pipe,
    Socket,
    SyscallContext,
    Task,
    TaskState,
)
from repro.kernel.subsys import EAGAIN, EBADF, FsState, NetState, TtyState
from repro.memory.paging import GuestPageTable


class StubSignals:
    @staticmethod
    def pending_raw(task):
        return bool(task.pending_signals)


class StubRt:
    """Just enough runtime for exercising subsystem methods directly."""

    def __init__(self):
        self.fs = FsState()
        self.net = NetState()
        self.tty = TtyState()
        self.signals = StubSignals()
        self.current = Task(1, "stub", GuestPageTable(), 0xC8002000)
        self.pending_signal_op = None
        self._cycles = 0
        self.woken = []

    @property
    def cycles(self):
        return self._cycles

    @property
    def ctx(self):
        return self.current.syscall

    @property
    def scratch(self):
        return self.current.syscall.scratch

    def arg(self, name, default=None):
        return self.current.syscall.args.get(name, default)

    def ret(self, value):
        self.current.syscall.retval = value

    def block_current(self, queue):
        queue.add(self.current)
        self.current.state = TaskState.BLOCKED

    def wake_queue(self, queue):
        for task in list(queue.waiters):
            queue.remove(task)
            task.state = TaskState.RUNNABLE
            self.woken.append(task)

    def refresh_next_event(self):
        pass

    def syscall(self, name, **args):
        self.current.syscall = SyscallContext(name, args)
        return self.current.syscall


@pytest.fixture()
def rt():
    return StubRt()


class TestFsClassification:
    @pytest.mark.parametrize(
        "path,kind",
        [
            ("/proc/stat", "proc"),
            ("/proc/1/status", "proc"),
            ("/dev/tty1", "tty"),
            ("/dev/pts/0", "tty"),
            ("/dev/console", "tty"),
            ("/dev/urandom", "dev"),
            ("/dev/snd/pcmC0D0p", "dev"),
            ("/etc/passwd", "ext4"),
            ("/var/www/index.html", "ext4"),
        ],
    )
    def test_classify(self, rt, path, kind):
        assert rt.fs.classify(path) == kind

    def test_open_op_by_path(self, rt):
        rt.syscall("open", path="/proc/meminfo")
        assert rt.fs.open_op(rt) == "proc_reg_open"
        rt.syscall("open", path="/data/x")
        assert rt.fs.open_op(rt) == "ext4_file_open"

    def test_read_write_ops_by_fd_kind(self, rt):
        pipe = Pipe(1)
        fd = rt.current.alloc_fd(File("pipe_r", "p", pipe))
        rt.syscall("read", fd=fd)
        assert rt.fs.read_op(rt) == "pipe_read"
        sock = Socket(1, "inet", "stream")
        sfd = rt.current.alloc_fd(File("socket", "s", sock))
        rt.syscall("read", fd=sfd)
        assert rt.fs.read_op(rt) == "sock_aio_read"
        rt.syscall("write", fd=sfd)
        assert rt.fs.write_op(rt) == "sock_aio_write"

    def test_release_op_table(self, rt):
        fd = rt.current.alloc_fd(File("tty", "/dev/tty1"))
        rt.syscall("close", fd=fd)
        assert rt.fs.release_op(rt) == "tty_release"


class TestFsRefcounting:
    def test_release_only_on_last_reference(self, rt):
        pipe = Pipe(1)
        file = File("pipe_w", "p", pipe)
        file.refcount = 2
        rt.fs.release_file(rt, file)
        assert pipe.writers == 1
        rt.fs.release_file(rt, file)
        assert pipe.writers == 0

    def test_dup2_bumps_refcount(self, rt):
        file = File("ext4", "/x")
        fd = rt.current.alloc_fd(file)
        rt.syscall("dup2", oldfd=fd, newfd=9)
        rt.fs.do_dup2(rt)
        assert file.refcount == 2
        assert rt.current.fd_table[9] is file

    def test_dup2_releases_displaced(self, rt):
        pipe = Pipe(1)
        displaced = File("pipe_w", "p", pipe)
        rt.current.fd_table[9] = displaced
        file = File("ext4", "/x")
        fd = rt.current.alloc_fd(file)
        rt.syscall("dup2", oldfd=fd, newfd=9)
        rt.fs.do_dup2(rt)
        assert pipe.writers == 0

    def test_dup2_bad_fd(self, rt):
        rt.syscall("dup2", oldfd=99, newfd=1)
        rt.fs.do_dup2(rt)
        assert rt.ctx.retval == EBADF


class TestPipeSemantics:
    def setup_pipe(self, rt):
        rt.syscall("pipe")
        rt.fs.pipe_create(rt)
        rfd, wfd = rt.ctx.retval
        return rfd, wfd, rt.current.fd_table[rfd].obj

    def test_create_returns_fd_pair(self, rt):
        rfd, wfd, pipe = self.setup_pipe(rt)
        assert rt.current.fd_table[rfd].kind == "pipe_r"
        assert rt.current.fd_table[wfd].kind == "pipe_w"

    def test_read_eof_when_no_writers(self, rt):
        rfd, wfd, pipe = self.setup_pipe(rt)
        pipe.writers = 0
        rt.syscall("read", fd=rfd, count=100)
        assert not rt.fs.pipe_read_wait(rt)
        rt.fs.pipe_do_read(rt)
        assert rt.ctx.retval == 0

    def test_read_waits_while_writer_open(self, rt):
        rfd, wfd, pipe = self.setup_pipe(rt)
        rt.syscall("read", fd=rfd, count=100)
        assert rt.fs.pipe_read_wait(rt)

    def test_signal_interrupts_wait(self, rt):
        rfd, wfd, pipe = self.setup_pipe(rt)
        rt.current.pending_signals.append(15)
        rt.syscall("read", fd=rfd, count=100)
        assert not rt.fs.pipe_read_wait(rt)

    def test_write_wakes_reader(self, rt):
        rfd, wfd, pipe = self.setup_pipe(rt)
        other = Task(2, "other", GuestPageTable(), 0xC8004000)
        pipe.wait_read.add(other)
        other.state = TaskState.BLOCKED
        rt.syscall("write", fd=wfd, count=64)
        rt.fs.pipe_do_write(rt)
        assert rt.ctx.retval == 64
        assert pipe.count == 64
        assert other in rt.woken

    def test_write_to_closed_readers_is_epipe(self, rt):
        rfd, wfd, pipe = self.setup_pipe(rt)
        pipe.readers = 0
        rt.syscall("write", fd=wfd, count=64)
        rt.fs.pipe_do_write(rt)
        assert rt.ctx.retval == -32


class TestNetTables:
    def make_socket(self, rt, family="inet", stype="stream", **kw):
        rt.syscall("socket", family=family, stype=stype, **kw)
        rt.net.do_create(rt)
        rt.net.do_install_fd(rt)
        fd = rt.ctx.retval
        return fd, rt.current.fd_table[fd].obj

    def test_create_install(self, rt):
        fd, sock = self.make_socket(rt)
        assert sock.family == "inet" and sock.stype == "stream"

    @pytest.mark.parametrize(
        "family,stype,send,recv",
        [
            ("inet", "stream", "tcp_sendmsg", "tcp_recvmsg"),
            ("inet", "dgram", "udp_sendmsg", "sock_common_recvmsg"),
            ("unix", "stream", "unix_stream_sendmsg", "unix_stream_recvmsg"),
            ("packet", "dgram", "packet_sendmsg", "packet_recvmsg"),
        ],
    )
    def test_sendmsg_recvmsg_dispatch(self, rt, family, stype, send, recv):
        fd, sock = self.make_socket(rt, family=family, stype=stype)
        rt.syscall("send", fd=fd, count=10)
        assert rt.net.sendmsg_op(rt) == send
        rt.syscall("recv", fd=fd, count=10)
        assert rt.net.recvmsg_op(rt) == recv

    def test_bind_registers_port(self, rt):
        fd, sock = self.make_socket(rt)
        rt.syscall("bind", fd=fd, port=8080)
        rt.net.do_bind(rt)
        assert rt.net.ports[8080] is sock

    def test_accept_nonblocking_empty_queue(self, rt):
        fd, sock = self.make_socket(rt, nonblocking=True)
        sock.listening = True
        rt.syscall("accept", fd=fd)
        assert not rt.net.accept_wait(rt)
        rt.net.do_accept(rt)
        rt.net.do_install_fd(rt)
        assert rt.ctx.retval == EAGAIN

    def test_recv_consumes_bytes(self, rt):
        fd, sock = self.make_socket(rt)
        sock.rx_bytes = 500
        sock.rx_packets = 1
        rt.syscall("recv", fd=fd, count=200)
        rt.net.do_recv(rt)
        assert rt.ctx.retval == 200
        assert sock.rx_bytes == 300

    def test_autobind_assigns_ephemeral_port(self, rt):
        fd, sock = self.make_socket(rt, stype="dgram")
        rt.syscall("sendto", fd=fd, count=10)
        rt.net.do_autobind(rt)
        assert sock.bound_port is not None
        assert sock.bound_port >= 32768


class TestBlockRechecksWait:
    """A wakeup landing between a wait check and its block act is kept."""

    def test_tty_read_does_not_block_on_input_cooked_in_the_window(self, rt):
        rt.syscall("read", fd=0, count=4)
        assert rt.tty.read_wait(rt)
        # the keyboard interrupt lands after the check, before the block
        rt.tty.inject_keystrokes(0, 3)
        rt.tty.on_input(rt)
        rt.tty.cook(rt)
        rt.tty.read_block(rt)
        assert rt.current.state != TaskState.BLOCKED
        assert rt.current not in rt.tty.wait_input.waiters

    def test_tty_read_blocks_without_input(self, rt):
        rt.syscall("read", fd=0, count=4)
        rt.tty.read_block(rt)
        assert rt.current.state == TaskState.BLOCKED
        assert rt.current in rt.tty.wait_input.waiters

    def test_pipe_read_does_not_block_on_data_written_in_the_window(self, rt):
        rt.syscall("pipe")
        rt.fs.pipe_create(rt)
        rfd, _ = rt.ctx.retval
        pipe = rt.current.fd_table[rfd].obj
        rt.syscall("read", fd=rfd, count=100)
        assert rt.fs.pipe_read_wait(rt)
        pipe.count = 64
        rt.fs.pipe_read_block(rt)
        assert rt.current.state != TaskState.BLOCKED
        assert rt.current not in pipe.wait_read.waiters


class TestTty:
    def test_input_cook_wake(self, rt):
        rt.tty.inject_keystrokes(0, 5)
        assert rt.tty.kbd_irq_due(0)
        rt.tty.on_input(rt)
        assert rt.tty.raw == 5
        waiter = Task(3, "sh", GuestPageTable(), 0xC8006000)
        rt.tty.wait_input.add(waiter)
        waiter.state = TaskState.BLOCKED
        rt.tty.cook(rt)
        assert rt.tty.cooked == 5
        assert waiter in rt.woken

    def test_read_consumes_cooked(self, rt):
        rt.tty.cooked = 10
        rt.syscall("read", fd=3, count=4)
        rt.tty.do_read(rt)
        assert rt.ctx.retval == 4
        assert rt.tty.cooked == 6

    def test_sniffers_observe_cook(self, rt):
        observed = []
        rt.tty.sniffers.append(lambda _rt, n: observed.append(n))
        rt.tty.inject_keystrokes(0, 3)
        rt.tty.on_input(rt)
        rt.tty.cook(rt)
        assert observed == [3]

    def test_out_op_pty_vs_console(self, rt):
        fd = rt.current.alloc_fd(File("tty", "/dev/pts/0"))
        rt.syscall("write", fd=fd, count=10)
        assert rt.tty.out_op(rt) == "pty_write"
        fd2 = rt.current.alloc_fd(File("tty", "/dev/tty1"))
        rt.syscall("write", fd=fd2, count=10)
        assert rt.tty.out_op(rt) == "con_write"
