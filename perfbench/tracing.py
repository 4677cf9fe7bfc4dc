"""Host-time spans around the program's public entry points.

The benchmark never edits the program.  A traced run replaces each
entry point listed in :data:`WRAPS` with a wrapper that records one span
-- name, start, end, parent span and thread -- into per-thread arrays
kept in memory, and restores the originals afterwards.  Spans are
written out once, when the traced process ends, and reduced here to
per-layer call counts and self time (a span's duration minus the time
its child spans cover).

Names are patched where their caller looks them up: ``decode`` and
``telemetry_snapshot`` are imported by value into the modules that call
them, so the wrapper goes into those modules, not into the defining one.

The clock is ``time.perf_counter_ns``, which on Linux reads
``CLOCK_MONOTONIC``: spans recorded inside the serve daemon compare
directly with timestamps the load generator takes in its own process.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, attribute path, span name).  The span name is the metric
#: prefix: ``<layer>.<boundary>``.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    # hypervisor + isa
    ("repro.hypervisor.vcpu", "Vcpu.run", "hypervisor.vcpu_run"),
    ("repro.hypervisor.kvm", "Hypervisor.run", "hypervisor.exit_loop"),
    ("repro.hypervisor.jit", "JitState.translate", "hypervisor.jit_translate"),
    ("repro.hypervisor.jit", "JitState.promote", "hypervisor.jit_promote"),
    ("repro.hypervisor.vcpu", "decode", "isa.decode"),
    ("repro.hypervisor.jit", "decode", "isa.decode"),
    # memory + kernel-semantics bridge
    ("repro.memory.mmu", "Mmu.resolve_entry", "memory.mmu_resolve"),
    ("repro.kernel.runtime", "KernelRuntime.do_act", "kernel.bridge"),
    ("repro.kernel.runtime", "KernelRuntime.eval_pred", "kernel.bridge"),
    ("repro.kernel.runtime", "KernelRuntime.resolve_slot", "kernel.bridge"),
    ("repro.kernel.runtime", "KernelRuntime.on_software_interrupt", "kernel.bridge"),
    ("repro.kernel.runtime", "KernelRuntime.on_ctxsw", "kernel.bridge"),
    ("repro.kernel.runtime", "KernelRuntime.deliver_interrupt", "kernel.bridge"),
    # guest + the paper's mechanism
    ("repro.guest.machine", "Machine.boot", "guest.boot"),
    ("repro.core.view_manager", "ViewBuilder.build", "core.view_build"),
    ("repro.core.switching", "ViewSwitcher.switch_kernel_view", "core.view_switch"),
    ("repro.core.recovery", "RecoveryEngine.handle", "core.recovery"),
    # fleet
    ("repro.fleet.snapshot", "MachineSnapshot.capture", "fleet.capture"),
    ("repro.fleet.snapshot", "MachineSnapshot.fork", "fleet.fork"),
    ("repro.serve.daemon", "execute_job", "fleet.execute_job"),
    ("repro.fleet.jobs", "profile_app_offline", "fleet.offline_profile"),
    # serve
    ("repro.serve.pool", "WarmPool.acquire", "serve.pool"),
    ("repro.serve.queue", "JobQueue.submit", "serve.queue"),
    ("repro.serve.queue", "JobQueue.finish", "serve.queue"),
    ("repro.serve.protocol", "send_message", "serve.protocol"),
    ("repro.serve.protocol", "recv_message", "serve.protocol"),
    # telemetry + obs
    ("repro.fleet.jobs", "telemetry_snapshot", "telemetry.snapshot"),
    ("repro.serve.daemon", "telemetry_snapshot", "telemetry.snapshot"),
    ("repro.serve.daemon", "merge_into", "telemetry.merge"),
    ("repro.telemetry.journal", "Journal.append", "telemetry.journal"),
    ("repro.telemetry.journal", "Journal.drain_segment", "telemetry.journal"),
    ("repro.obs.store", "ObsStore.append_sample", "obs.store"),
    ("repro.obs.store", "ObsStore.append_alert", "obs.store"),
    ("repro.obs.store", "ObsStore.append_event", "obs.store"),
    ("repro.obs.store", "ObsStore.job_journal", "obs.store"),
    ("repro.obs.store", "TraceJournalWriter.extend", "obs.store"),
    ("repro.obs.store", "TraceJournalWriter.close", "obs.store"),
    ("repro.obs.metrics", "MetricsRecorder.sample", "obs.metrics"),
)

#: Request hooks: spans a worker thread opens between ``JobQueue.next_job``
#: handing it a job and ``JobQueue.finish`` closing that job carry the
#: job's name as their request id.
_REQUEST_START = ("repro.serve.queue", "JobQueue.next_job")
_REQUEST_END = ("repro.serve.queue", "JobQueue.finish")


class ThreadLog:
    """Spans of one thread, as parallel arrays in open order.

    A span's index is fixed when it opens, so every child has a larger
    index than its parent; ``end`` stays 0 while the span is open.
    ``start`` is appended last, so its length counts complete rows.
    """

    __slots__ = ("thread", "name", "parent", "rid", "start", "end", "stack", "current_rid")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name = array("H")
        self.parent = array("i")
        self.rid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = []
        self.current_rid = 0


class Tracer:
    """Installs span wrappers and holds the spans they record."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: request ids; index 0 is "no request"
        self.rids: List[str] = [""]
        self._rid_ids: Dict[str, int] = {"": 0}
        self.logs: List[ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- ids ------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def rid_id(self, rid: str) -> int:
        with self._lock:
            if rid not in self._rid_ids:
                self._rid_ids[rid] = len(self.rids)
                self.rids.append(rid)
            return self._rid_ids[rid]

    def log(self) -> ThreadLog:
        """This thread's log, created on first use."""
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog(threading.current_thread().name)
            with self._lock:
                self.logs.append(log)
            self._local.log = log
        return log

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""
        nid = self.name_id(name)
        local = self._local
        clock = time.perf_counter_ns
        new_log = self.log

        def traced(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = new_log()
            stack = log.stack
            idx = len(log.start)
            log.name.append(nid)
            log.parent.append(stack[-1] if stack else -1)
            log.rid.append(log.current_rid)
            log.end.append(0)
            stack.append(idx)
            log.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _request_start(self, fn: Callable) -> Callable:
        def next_job(*args, **kwargs):
            job = fn(*args, **kwargs)
            if job is not None:
                self.log().current_rid = self.rid_id(job.job.name)
            return job

        return next_job

    def _request_end(self, fn: Callable) -> Callable:
        def finish(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.log().current_rid = 0

        return finish

    def _patch(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # class-level lookup keeps classmethod/staticmethod descriptors intact
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry point in :data:`WRAPS` (and the request hooks)."""
        for module, path, name in WRAPS:
            self._patch(module, path, lambda fn, name=name: self.wrap(name, fn))
        self._patch(*_REQUEST_END, self._request_end)
        self._patch(*_REQUEST_START, self._request_start)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- dump -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every finished-or-open span: a JSON header line, then
        each thread's arrays as raw bytes.  Open spans keep ``end`` 0."""
        with self._lock:
            logs = list(self.logs)
            names = list(self.names)
            rids = list(self.rids)
        # a row another thread is still appending is cut off
        cuts = [len(log.start) for log in logs]
        header = {
            "names": names,
            "rids": rids,
            "threads": [{"thread": log.thread, "count": n} for log, n in zip(logs, cuts)],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for log, n in zip(logs, cuts):
                for column in (log.name, log.parent, log.rid, log.start, log.end):
                    column[:n].tofile(fh)


@dataclass
class SpanDump:
    """Spans read back from :meth:`Tracer.dump`."""

    names: List[str]
    rids: List[str]
    logs: List[ThreadLog]


def load(path: str) -> SpanDump:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        logs = []
        for entry in header["threads"]:
            log = ThreadLog(entry["thread"])
            n = entry["count"]
            for column in (log.name, log.parent, log.rid, log.start, log.end):
                column.fromfile(fh, n)
            logs.append(log)
    return SpanDump(names=header["names"], rids=header["rids"], logs=logs)


@dataclass
class LayerTotals:
    """Per span name: call count and self time (ns), within a selection."""

    n: Dict[str, int]
    self_ns: Dict[str, int]

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9


def self_times(
    names: Sequence[str],
    logs: Iterable[ThreadLog],
    window: Optional[Tuple[int, int]] = None,
    threads: Optional[Callable[[str], bool]] = None,
    rids: Optional[Iterable[int]] = None,
) -> LayerTotals:
    """Count calls and sum self time per span name.

    A span's self time is its duration minus the durations of its direct
    children, so nested calls of one layer are never counted twice.
    Spans still open (``end`` 0) are skipped along with their share of
    their parent.  The selection -- ``window`` on start time, ``threads``
    on thread name, ``rids`` on request id -- applies after self time is
    computed, so it never changes a selected span's value.
    """
    counts: Dict[str, int] = {}
    self_ns: Dict[str, int] = {}
    rid_set = None if rids is None else set(rids)
    lo, hi = window if window is not None else (None, None)
    for log in logs:
        if threads is not None and not threads(log.thread):
            continue
        n = len(log.end)
        child = [0] * n
        name_col, parent, rid, start, end = log.name, log.parent, log.rid, log.start, log.end
        # children have larger indices than their parents: walking
        # backwards finishes every child before its parent is read
        for i in range(n - 1, -1, -1):
            e = end[i]
            if e == 0:
                continue
            s = start[i]
            dur = e - s
            p = parent[i]
            if p >= 0:
                child[p] += dur
            if lo is not None and not (lo <= s < hi):
                continue
            if rid_set is not None and rid[i] not in rid_set:
                continue
            key = names[name_col[i]]
            counts[key] = counts.get(key, 0) + 1
            self_ns[key] = self_ns.get(key, 0) + dur - child[i]
    return LayerTotals(n=counts, self_ns=self_ns)
