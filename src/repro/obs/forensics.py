"""Forensic narratives from flight-recorder journals (``repro forensics``).

The paper's evaluation (Section IV) is a forensic reading of causal
chains: a ``#UD`` exit leads to a backtrace, a provenance verdict, and
either a benign recovery or a captured attack.  With a span journal
those chains are real trees (parent links recorded at runtime, see
:mod:`repro.telemetry.spans`); this module renders them as the
narrative the paper presents in Figures 4/5.

Legacy ``repro trace -o`` snapshots (flat trace rings, no journal) are
still accepted: they fall back to the ``(cycles, rip)`` correlation
heuristic from :mod:`repro.analysis.timeline`, clearly labelled as such.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.telemetry.journal import (
    JournalData,
    JournalError,
    SpanNode,
    build_span_trees,
    load_journal,
    read_header,
)

#: Verdicts in severity order (worst first) for the summary line.
_VERDICT_ORDER = ("captured-attack", "anomalous", "benign")


def attack_trees(trees: List[SpanNode]) -> List[SpanNode]:
    """Root spans whose chain contains a captured-attack verdict."""
    return [
        tree
        for tree in trees
        if any(
            node.attrs.get("verdict") == "captured-attack"
            for node in tree.find("provenance")
        )
    ]


def narrate_tree(node: SpanNode, indent: int = 0) -> List[str]:
    """Render one span (and its subtree) as narrative lines."""
    pad = "  " * indent
    attrs = node.attrs
    rec = node.record
    kind = node.kind
    if kind == "vmexit":
        line = (
            f"{pad}vmexit {attrs.get('reason', '?')} at rip "
            f"{attrs.get('rip', 0):#x} "
            f"[cpu{rec.get('cpu', 0)} cycles {rec.get('start', 0)}"
            f"..{rec.get('end', 0)}]"
        )
        if rec.get("status") != "ok":
            line += f"  ({rec.get('status')})"
    elif kind == "backtrace":
        line = (
            f"{pad}backtrace: {attrs.get('depth', 0)} frames, "
            f"{attrs.get('unknown', 0)} UNKNOWN, "
            f"{attrs.get('instant', 0)} instant recoveries"
        )
    elif kind == "provenance":
        line = (
            f"{pad}provenance: verdict={attrs.get('verdict', '?')} "
            f"pid={attrs.get('pid')} comm={attrs.get('comm')} "
            f"view={attrs.get('view_app')}"
        )
        if attrs.get("in_interrupt"):
            line += " (interrupt context)"
        if attrs.get("unknown_frames"):
            line += " (UNKNOWN frames: hidden code)"
    elif kind == "recovery":
        status = rec.get("status", "ok")
        if status == "ok":
            line = (
                f"{pad}recovery: filled {attrs.get('recovered', '?')} "
                f"({attrs.get('bytes', 0)} bytes) at rip "
                f"{attrs.get('rip', 0):#x}"
            )
        else:
            line = (
                f"{pad}recovery: UNHANDLED at rip {attrs.get('rip', 0):#x} "
                "(guest would crash)"
            )
    elif kind == "view_switch":
        line = (
            f"{pad}view switch: {attrs.get('from_view')} -> "
            f"{attrs.get('to_view')} (kernel[{attrs.get('app')}], "
            f"{attrs.get('cost', 0)} cycles)"
        )
    else:
        detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        line = f"{pad}{kind}: {detail}".rstrip(": ")
    lines = [line]
    for event in node.events:
        fields = event.get("fields", {})
        detail = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
        lines.append(f"{pad}  . {event.get('kind', '?')} {detail}".rstrip())
    for child in node.children:
        lines.extend(narrate_tree(child, indent + 1))
    return lines


def _verdict_counts(trees: List[SpanNode]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for tree in trees:
        for node in tree.find("provenance"):
            verdict = node.attrs.get("verdict", "?")
            counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def render_journal_narrative(
    data: JournalData, limit: int = 50, all_exits: bool = False
) -> str:
    """The full ``repro forensics`` rendering for one journal.

    By default only *eventful* chains are narrated -- exits whose
    subtree contains a recovery, view switch or provenance verdict
    (plain traps would drown them out); ``all_exits`` keeps everything.
    """
    trees = build_span_trees(data.records)
    eventful = [
        tree
        for tree in trees
        if all_exits
        or tree.kind != "vmexit"
        or tree.children
        or tree.events
    ]
    verdicts = _verdict_counts(trees)
    attacks = attack_trees(trees)
    sections: List[str] = []

    header = [
        f"journal: {len(data.records)} records, "
        f"{len(trees)} causal chains ({len(eventful)} eventful), "
        f"{data.dropped} dropped"
        + ("" if data.complete else " [no footer: run did not close cleanly]")
    ]
    if data.meta:
        header.append(
            "meta: " + " ".join(f"{k}={v}" for k, v in sorted(data.meta.items()))
        )
    if verdicts:
        header.append(
            "verdicts: "
            + " ".join(
                f"{name}={verdicts[name]}"
                for name in _VERDICT_ORDER
                if name in verdicts
            )
        )
    sections.append("\n".join(header))

    incidents = [r for r in data.records if r.get("t") == "alert"]
    if incidents:
        # the serve daemon's ops journal interleaves alert-rule
        # transitions with the flight recorder; narrate them as
        # operational incidents alongside the attack chains
        lines = [f"== operational incidents ({len(incidents)} transitions) =="]
        for record in incidents:
            label = f" ({record['label']})" if record.get("label") else ""
            value = record.get("value")
            detail = (
                f" value={value:g} threshold={record.get('threshold')}"
                if isinstance(value, (int, float))
                else ""
            )
            lines.append(
                f"  {record.get('state', '?').upper():<9} "
                f"{record.get('rule', '?')}{label}{detail}"
            )
            if record.get("state") == "firing" and record.get("description"):
                lines.append(f"            {record['description']}")
        sections.append("\n".join(lines))

    if attacks:
        lines = [f"== captured attacks ({len(attacks)} chains) =="]
        for tree in attacks:
            lines.extend(narrate_tree(tree))
            lines.append("")
        sections.append("\n".join(lines).rstrip())

    shown = [tree for tree in eventful if tree not in attacks][:limit]
    omitted = len(eventful) - len(attacks) - len(shown)
    lines = ["== causal chains =="]
    if not shown and not attacks:
        lines.append("(no eventful chains recorded)")
    for tree in shown:
        lines.extend(narrate_tree(tree))
        lines.append("")
    if omitted > 0:
        lines.append(f"... ({omitted} further chains omitted)")
    sections.append("\n".join(lines).rstrip())

    return "\n\n".join(sections)


def render_legacy_snapshot(snap: Dict[str, Any]) -> str:
    """Fallback for pre-journal ``repro trace -o`` snapshot files.

    No parent links exist in a flat trace dump, so recoveries are
    listed from the ring with an explicit disclaimer: grouping is the
    ``(cycles, rip)`` heuristic, not recorded causality.
    """
    trace = snap.get("trace", {})
    events = trace.get("events", [])
    recoveries = [e for e in events if e.get("kind") == "recovery"]
    lines = [
        "legacy snapshot: no span journal -- correlating by (cycles, rip); "
        "parent links unavailable",
        f"trace: {len(events)} events, {trace.get('dropped', 0)} dropped",
    ]
    if not recoveries:
        lines.append("(no recovery events in trace)")
        return "\n".join(lines)
    lines.append(f"== recoveries ({len(recoveries)}) ==")
    for event in recoveries:
        lines.append(
            f"[{event.get('cycles', 0):>12}] rip={event.get('rip', 0):#x} "
            f"recovered={event.get('recovered', '?')} "
            f"pid={event.get('pid')} comm={event.get('comm')} "
            f"view={event.get('view_app')}"
        )
    return "\n".join(lines)


def render_forensics(path: Union[str, Path]) -> str:
    """Auto-detect journal vs legacy snapshot and render the narrative."""
    path = Path(path)
    if read_header(path) is not None:
        return render_journal_narrative(load_journal(path))
    try:
        snap = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise JournalError(f"unreadable file {path}: {exc}") from exc
    except ValueError as exc:
        raise JournalError(
            f"{path} is neither a span journal nor a telemetry snapshot: {exc}"
        ) from exc
    if not isinstance(snap, dict):
        raise JournalError(f"{path}: unexpected JSON payload")
    return render_legacy_snapshot(snap)
