"""httperf-alike I/O benchmark for Apache (paper Figure 7).

Reproduces Section IV-B2: a fixed pool of connections is offered to the
Apache workload at request rates from 5 to 60 requests per second (100
connections total per point, like the paper), once with FACE-CHANGE off
and once with Apache's kernel view enforced.  The reported series is the
ratio of achieved I/O throughput (replies per virtual second) with
FACE-CHANGE on versus off.

The expected shape: ratio ~1.0 while the offered rate is below the
CPU-saturation knee (the paper observes ~55 req/s on its hardware),
degrading beyond it because bursty traffic forces frequent kernel view
switches precisely when the CPU has no headroom left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.facechange import FaceChange
from repro.core.kernel_view import KernelViewConfig
from repro.guest.machine import RUN_SLICE, boot_machine
from repro.kernel.objects import Compute, Syscall
from repro.kernel.runtime import Platform

Sys = Syscall

#: Virtual cycles per "second" for the request-rate axis.  Calibrated so
#: the serving capacity saturates just above 60 req/s without
#: FACE-CHANGE, putting the FACE-CHANGE knee near the paper's 55 req/s.
CYCLES_PER_SECOND = 14_000_000
APACHE_PORT = 80


#: Apache prefork worker count; workers share the listen socket, so each
#: request burst wakes and schedules several processes (this is what
#: makes view-switch frequency track the traffic rate, the effect the
#: paper blames for the post-knee degradation).
WORKER_COUNT = 4


def _httperf_server(total_connections: int, served: Dict[str, int]):
    """Apache prefork: a master plus workers accepting from one socket."""

    def worker(listen_fd):
        def child():
            while served["n"] < total_connections:
                conn = yield Sys("accept", fd=listen_fd)
                if conn < 0:
                    continue
                yield Sys("recv", fd=conn, count=2048)
                fd = yield Sys("open", path="/var/www/index.html")
                yield Sys("fstat", fd=fd)
                yield Compute(132_000)  # request parsing / response build
                yield Sys("sendfile", fd=conn, count=8192)
                yield Sys("close", fd=fd)
                yield Sys("close", fd=conn)
                served["n"] += 1
        return child

    def driver():
        sock = yield Sys("socket", family="inet", stype="stream")
        yield Sys("setsockopt", fd=sock)
        yield Sys("bind", fd=sock, port=APACHE_PORT)
        yield Sys("listen", fd=sock)
        pids = []
        for _ in range(WORKER_COUNT):
            pid = yield Sys("fork", child=worker(sock), comm="apache")
            pids.append(pid)
        for pid in pids:
            yield Sys("waitpid", pid=pid)
        yield Sys("close", fd=sock)

    return driver


@dataclass
class HttperfPoint:
    """One rate point of the sweep."""

    rate: int  # offered requests per (virtual) second
    baseline_throughput: float
    facechange_throughput: float

    @property
    def ratio(self) -> float:
        if self.baseline_throughput == 0:
            return 0.0
        return self.facechange_throughput / self.baseline_throughput


def _run_rate(
    rate: int,
    connections: int,
    config: Optional[KernelViewConfig],
) -> float:
    """Serve ``connections`` requests offered at ``rate``; return reps/s."""
    machine = boot_machine(platform=Platform.KVM)
    if config is not None:
        fc = FaceChange(machine)
        fc.enable()
        fc.load_view(config, comm="apache")
    interval = CYCLES_PER_SECOND // rate
    served = {"n": 0}
    machine.spawn("apache", _httperf_server(connections, served))
    start = machine.cycles
    for i in range(connections):
        when = (i + 1) * interval
        machine.inject_packet(
            APACHE_PORT, 0, delay=when, kind="syn", conn_id=7000 + i
        )
        machine.inject_packet(
            APACHE_PORT, 400, delay=when + 2_000, kind="data", conn_id=7000 + i
        )
    machine.run(
        until=lambda: served["n"] >= connections,
        max_cycles=start + connections * interval * 50 + 4_000_000_000,
        step_budget=RUN_SLICE,
    )
    if served["n"] < connections:
        raise RuntimeError(f"apache did not serve all requests at rate {rate}")
    elapsed = max(1, machine.cycles - start)
    return connections * CYCLES_PER_SECOND / elapsed


def run_httperf_sweep(
    config: KernelViewConfig,
    rates: Optional[List[int]] = None,
    connections: int = 100,
) -> List[HttperfPoint]:
    """The full Figure 7 sweep: 5..60 req/s, 100 connections each."""
    if rates is None:
        rates = list(range(5, 61, 5))
    points: List[HttperfPoint] = []
    for rate in rates:
        base = _run_rate(rate, connections, None)
        with_fc = _run_rate(rate, connections, config)
        points.append(
            HttperfPoint(
                rate=rate,
                baseline_throughput=base,
                facechange_throughput=with_fc,
            )
        )
    return points
