"""Serve subsystem: the multi-tenant fleet daemon and its control client.

The batch fleet (:mod:`repro.fleet`) answers "run this spec, give me
the results"; this package answers "keep a fleet warm and run whatever
arrives".  FACE-CHANGE's per-application view enforcement (paper §III)
becomes a service shape: every tenant submission gets its own
view-enforced CoW clone, forked from a warm per-variant snapshot, and
its virtual-cycle score is bit-identical to the same job run via
``repro fleet`` -- the invisibility gate this repo enforces on every
subsystem.

* :mod:`repro.serve.queue` -- priority job queue, admission control,
  per-tenant in-flight caps and virtual-cycle budgets;
* :mod:`repro.serve.pool` -- warm ``MachineSnapshot`` pools keyed by
  ``GuestConfig.digest()`` with pre-forked clones;
* :mod:`repro.serve.daemon` -- the daemon: autoscaling worker pool,
  JSON-lines control socket, streamed heartbeats/journal segments,
  lifetime telemetry merge;
* :mod:`repro.serve.worker` -- the worker processes that run the jobs
  and the spawner that forks them;
* :mod:`repro.serve.client` -- the ``repro ctl`` client;
* :mod:`repro.serve.protocol` -- the wire format.
"""

from repro.serve.client import (
    DaemonUnreachable,
    MetricsDisabled,
    ServeClient,
    ServeClientError,
    SubmissionRejected,
    UnknownJob,
)
from repro.serve.daemon import EventSink, JobAborted, ServeDaemon, ServeError
from repro.serve.pool import WarmPool
from repro.serve.protocol import DEFAULT_SOCKET, mint_trace_id
from repro.serve.queue import (
    AdmissionError,
    JobQueue,
    QueuedJob,
    TenantPolicy,
)
from repro.serve.webhook import AlertWebhook

__all__ = [
    "AdmissionError",
    "AlertWebhook",
    "DEFAULT_SOCKET",
    "DaemonUnreachable",
    "EventSink",
    "JobAborted",
    "JobQueue",
    "MetricsDisabled",
    "QueuedJob",
    "ServeClient",
    "ServeClientError",
    "ServeDaemon",
    "ServeError",
    "SubmissionRejected",
    "TenantPolicy",
    "UnknownJob",
    "WarmPool",
    "mint_trace_id",
]
