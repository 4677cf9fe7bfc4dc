"""Causal spans: guest events recorded with the chain that caused them.

A VM exit at a UD2 fill, the backtrace walked from it, the provenance
verdict and the code fill that resolves it are one causal chain (paper
§III-B3, §III-C).  Spans record that chain where it happens, so no
reader has to join events after the fact:

* a :class:`Span` has an id, a parent id, a kind, start/end virtual
  cycles and free-form attributes;
* the :class:`SpanRecorder` keeps one stack of open spans **per vCPU**,
  so a span opened while another is open becomes its child
  automatically -- the exit-stage pipeline opens the root ``vmexit``
  span and everything the handler does (view switch, backtrace,
  provenance verdict, recovery fill) nests under it;
* closed spans are appended to the attached
  :class:`~repro.telemetry.journal.Journal` (the forensic flight
  recorder), from which :func:`~repro.telemetry.journal.build_span_trees`
  reconstructs the trees with real parent links.

Spans charge **zero guest cycles**: they only read the vCPU's virtual
clock, never advance it, so every virtual-cycle benchmark score is
bit-identical with the recorder on or off
(the ``observability`` scenario of ``benchmarks/gates.py`` enforces
this).  Hot
paths guard every call behind the single ``telemetry.recording`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Sentinel: derive the parent from the per-CPU stack of open spans.
_AUTO = object()


@dataclass
class Span:
    """One node of a causal chain (open until :meth:`SpanRecorder.close`)."""

    span_id: int
    parent_id: Optional[int]
    kind: str
    cpu: int
    start_cycles: int
    end_cycles: Optional[int] = None
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end_cycles is None

    def to_record(self) -> Dict[str, Any]:
        """The journal payload (sans ``seq``, which the journal assigns)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "cpu": self.cpu,
            "start": self.start_cycles,
            "end": self.end_cycles,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Allocates span ids and maintains the per-CPU open-span stacks."""

    def __init__(self) -> None:
        self._next_id = 1
        self._open: Dict[int, List[Span]] = {}
        self.journal = None  # bound by Telemetry.attach_journal
        #: request trace id stamped onto root spans while set (the
        #: serve daemon binds it for the duration of a traced job, so
        #: every vmexit chain in the guest journal links back to the
        #: submission that caused it).  An attribute only -- it never
        #: touches cycle accounting, so scores stay bit-identical.
        self.trace_id: Optional[str] = None

    def bind(self, journal) -> None:
        self.journal = journal

    def unbind(self) -> None:
        self.journal = None

    # -- span lifecycle ------------------------------------------------------

    def open(
        self,
        kind: str,
        cpu: int = 0,
        cycles: int = 0,
        parent: Any = _AUTO,
        **attrs: Any,
    ) -> Span:
        """Open a span; parent defaults to the CPU's innermost open span."""
        if parent is _AUTO:
            stack = self._open.get(cpu)
            parent_id = stack[-1].span_id if stack else None
        else:
            parent_id = parent.span_id if isinstance(parent, Span) else parent
        if parent_id is None and self.trace_id is not None:
            attrs.setdefault("trace", self.trace_id)
        span = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            kind=kind,
            cpu=cpu,
            start_cycles=cycles,
            attrs=attrs,
        )
        self._next_id += 1
        self._open.setdefault(cpu, []).append(span)
        return span

    def close(
        self, span: Span, cycles: int = 0, status: str = "ok", **attrs: Any
    ) -> Span:
        """Close ``span`` and persist it to the journal (if bound)."""
        span.end_cycles = cycles
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        stack = self._open.get(span.cpu)
        if stack and span in stack:
            stack.remove(span)
        if self.journal is not None:
            self.journal.append("span", **span.to_record())
        return span

    def event(self, span: Span, kind: str, cycles: int = 0, **attrs: Any) -> Span:
        """A zero-duration child span (e.g. a provenance verdict)."""
        child = self.open(kind, cpu=span.cpu, cycles=cycles,
                          parent=span.span_id, **attrs)
        # remove from the stack immediately: it must not adopt children
        return self.close(child, cycles=cycles)

    def current(self, cpu: int = 0) -> Optional[Span]:
        """The CPU's innermost open span (journaled events link to it)."""
        stack = self._open.get(cpu)
        return stack[-1] if stack else None

    def reset(self) -> None:
        self._open.clear()
        self._next_id = 1
