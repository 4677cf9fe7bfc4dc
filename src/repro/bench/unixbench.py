"""UnixBench-alike system benchmark (paper Figure 6).

Subtests mirror the classic UnixBench index: CPU (Dhrystone/Whetstone),
``execl`` throughput, file copies at three buffer sizes, pipe throughput,
pipe-based context switching, process creation, shell scripts and raw
syscall overhead.  Each subtest reports operations per *virtual* second;
the experiment driver runs the suite with FACE-CHANGE off (baseline) and
then with 1..11 kernel views loaded while their applications are
resident, normalizing every score against the baseline.

The paper's headline results this regenerates:

* whole-system overhead of roughly 5-7% with FACE-CHANGE enabled;
* additional loaded views have trivial impact;
* the only sharply degraded subtest is Pipe-based Context Switching,
  because FACE-CHANGE adds a trap per context switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.apps.base import Env
from repro.apps.catalog import APP_CATALOG
from repro.core.facechange import FaceChange
from repro.core.kernel_view import KernelViewConfig
from repro.guest.machine import RUN_SLICE, Machine, boot_machine
from repro.kernel.objects import Compute, Syscall
from repro.kernel.runtime import Platform

Sys = Syscall

#: Virtual cycles per benchmark "second" (score denominator).
CYCLES_PER_SECOND = 1_000_000


# ---------------------------------------------------------------------------
# subtest drivers
# ---------------------------------------------------------------------------


def _dhrystone(n: int):
    for _ in range(n):
        yield Compute(120_000)


def _whetstone(n: int):
    for _ in range(n):
        yield Compute(150_000)


def _execl(n: int):
    for i in range(n):
        yield Sys("execve", comm="bench", driver=None)
        yield Sys("getpid")


def _file_copy(bufsize: int):
    def driver(n: int):
        src = yield Sys("open", path="/data/src.bin")
        dst = yield Sys("open", path="/data/dst.bin")
        for _ in range(n):
            yield Sys("read", fd=src, count=bufsize)
            yield Sys("write", fd=dst, count=bufsize)
        yield Sys("close", fd=src)
        yield Sys("close", fd=dst)

    return driver


def _pipe_throughput(n: int):
    rfd, wfd = yield Sys("pipe")
    for _ in range(n):
        yield Sys("write", fd=wfd, count=512)
        yield Sys("read", fd=rfd, count=512)
    yield Sys("close", fd=rfd)
    yield Sys("close", fd=wfd)


def _pipe_context_switching(n: int):
    r1, w1 = yield Sys("pipe")
    r2, w2 = yield Sys("pipe")

    def ponger():
        def child():
            yield Sys("close", fd=w1)
            yield Sys("close", fd=r2)
            while True:
                got = yield Sys("read", fd=r1, count=64)
                if got <= 0:
                    break
                yield Sys("write", fd=w2, count=64)
        return child

    pid = yield Sys("fork", child=ponger(), comm="bench")
    yield Sys("close", fd=r1)
    yield Sys("close", fd=w2)
    for _ in range(n):
        yield Sys("write", fd=w1, count=64)
        yield Sys("read", fd=r2, count=64)
    yield Sys("close", fd=w1)
    yield Sys("waitpid", pid=pid)


def _process_creation(n: int):
    def noop():
        def child():
            yield Sys("getpid")
        return child

    for _ in range(n):
        pid = yield Sys("fork", child=noop(), comm="bench")
        yield Sys("waitpid", pid=pid)


def _shell_scripts(n: int):
    def script():
        def child():
            yield Sys("execve", comm="sh", driver=None)
            fd = yield Sys("open", path="/tmp/script.out")
            yield Sys("write", fd=fd, count=256)
            yield Sys("close", fd=fd)
        return child

    for _ in range(n):
        rfd, wfd = yield Sys("pipe")
        pid = yield Sys("fork", child=script(), comm="sh")
        yield Sys("close", fd=wfd)
        yield Sys("close", fd=rfd)
        yield Sys("waitpid", pid=pid)


def _syscall_overhead(n: int):
    for _ in range(n):
        yield Sys("getpid")
        yield Sys("getuid")


#: (name, driver, iterations) in the order Figure 6 plots them.
UNIXBENCH_SUBTESTS: Sequence = (
    ("Dhrystone 2", _dhrystone, 40),
    ("Whetstone", _whetstone, 32),
    ("Execl Throughput", _execl, 80),
    ("File Copy 1024", _file_copy(1024), 300),
    ("File Copy 256", _file_copy(256), 300),
    ("File Copy 4096", _file_copy(4096), 300),
    ("Pipe Throughput", _pipe_throughput, 500),
    ("Pipe-based Context Switching", _pipe_context_switching, 250),
    ("Process Creation", _process_creation, 60),
    ("Shell Scripts", _shell_scripts, 40),
    ("System Call Overhead", _syscall_overhead, 1000),
)

#: Table I applications loaded as resident views, in the paper's order.
#: gzip is excluded -- footnote 5: it is not long-running enough to stay
#: resident for the whole measurement.
RESIDENT_APPS: Sequence[str] = (
    "firefox",
    "totem",
    "gvim",
    "apache",
    "vsftpd",
    "top",
    "tcpdump",
    "mysqld",
    "bash",
    "sshd",
    "eog",
)


@dataclass
class UnixBenchResult:
    """One suite run: per-subtest scores plus the geometric-mean index."""

    label: str
    views_loaded: int
    scores: Dict[str, float] = field(default_factory=dict)

    @property
    def index(self) -> float:
        product = 1.0
        for score in self.scores.values():
            product *= score
        return product ** (1.0 / max(1, len(self.scores)))

    def normalized(self, baseline: "UnixBenchResult") -> Dict[str, float]:
        return {
            name: score / baseline.scores[name]
            for name, score in self.scores.items()
        }

    def normalized_index(self, baseline: "UnixBenchResult") -> float:
        values = self.normalized(baseline)
        product = 1.0
        for value in values.values():
            product *= value
        return product ** (1.0 / max(1, len(values)))


def _resident_idle(comm: str):
    """A resident application: a burst of its real activity, then idling."""

    def factory(env: Env, scale: int):
        app = APP_CATALOG[comm](env, scale)

        def driver():
            yield from app()
            while True:
                yield Sys("nanosleep", cycles=8_000_000)
                yield Sys("getpid")

        return driver

    return factory


def _run_subtest(
    machine: Machine, driver_fn, iterations: int, rounds: int = 3
) -> float:
    """Run one subtest; return the best ops-per-virtual-second of N rounds.

    Best-of-N filters out bursty interference from resident background
    applications (their wakeups are sparse, FACE-CHANGE's per-context-
    switch cost is not, so the systematic overhead survives the max).
    """
    best = 0.0
    for _ in range(rounds):
        def bench_driver():
            yield from driver_fn(iterations)

        task = machine.spawn("bench", lambda: bench_driver())
        start = machine.cycles
        if not machine.run_to_exit([task], budget=4_000_000_000):
            raise RuntimeError("benchmark subtest did not finish")
        elapsed = max(1, machine.cycles - start)
        best = max(best, iterations * CYCLES_PER_SECOND / elapsed)
    return best


def run_unixbench(
    views: int = 0,
    configs: Optional[Dict[str, KernelViewConfig]] = None,
    label: Optional[str] = None,
    seed: Optional[int] = None,
) -> UnixBenchResult:
    """Run the full suite on a fresh machine.

    ``views=0`` runs the FACE-CHANGE-off baseline.  ``views=k`` enables
    FACE-CHANGE, loads the first ``k`` Table I views and keeps their
    applications resident during the measurement (the paper's step 3).
    ``seed`` pins the resident applications' workload RNG for replayable
    runs.
    """
    machine = boot_machine(platform=Platform.KVM)
    resident = []
    if views > 0:
        if configs is None:
            raise ValueError("configs required when loading views")
        fc = FaceChange(machine)
        fc.enable()
        env = Env(machine) if seed is None else Env(machine, seed=seed)
        for comm in RESIDENT_APPS[:views]:
            fc.load_view(configs[comm], comm=comm)
            factory = _resident_idle(comm)(env, 1)
            resident.append(machine.spawn(comm, factory))
        # let the resident applications' activity bursts drain so the
        # measurement sees their steady (mostly idle) state
        machine.run(max_cycles=machine.cycles + 60_000_000, step_budget=RUN_SLICE)
    result = UnixBenchResult(
        label=label if label is not None else f"{views} views",
        views_loaded=views,
    )
    for name, driver_fn, iterations in UNIXBENCH_SUBTESTS:
        result.scores[name] = _run_subtest(machine, driver_fn, iterations)
    return result
