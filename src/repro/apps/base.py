"""Workload environment and launch helpers for application drivers.

The :class:`Env` wraps the machine facilities a *workload generator*
legitimately controls from outside the guest -- injecting network
traffic at the NIC and keystrokes at the keyboard controller -- plus a
deterministic RNG so every profiling run is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.guest.machine import Machine
from repro.kernel.objects import Task

Driver = Generator[Any, Any, None]
DriverFactory = Callable[[], Driver]
#: An application workload: (env, scale) -> driver factory
Workload = Callable[["Env", int], DriverFactory]


class Env:
    """External-world handle given to application workloads."""

    def __init__(self, machine: Machine, seed: int = 20140623) -> None:
        self.machine = machine
        self.rng = random.Random(seed)

    def now(self) -> int:
        return self.machine.cycles

    def inject_packet(
        self,
        port: int,
        nbytes: int,
        delay: int = 0,
        kind: str = "dgram",
        conn_id: Optional[int] = None,
    ) -> None:
        self.machine.inject_packet(port, nbytes, delay=delay, kind=kind, conn_id=conn_id)

    def inject_keystrokes(self, nchars: int, delay: int = 0) -> None:
        self.machine.inject_keystrokes(nchars, delay=delay)


@dataclass
class WorkloadHandle:
    """A launched application's task; ``Machine.run_to_exit`` runs it."""

    task: Task

    @property
    def finished(self) -> bool:
        return self.task.finished


def launch(
    machine: Machine,
    comm: str,
    workload: Workload,
    scale: int = 10,
    env: Optional[Env] = None,
    seed: Optional[int] = None,
) -> WorkloadHandle:
    """Spawn an application workload on a booted machine.

    ``seed`` pins the workload RNG (ignored when an explicit ``env`` is
    supplied); two launches with the same seed on identical machines
    replay bit-identically.
    """
    if env is None:
        env = Env(machine) if seed is None else Env(machine, seed=seed)
    factory = workload(env, scale)
    task = machine.spawn(comm, factory)
    return WorkloadHandle(task=task)
