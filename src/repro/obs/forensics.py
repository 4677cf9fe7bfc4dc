"""Forensic narratives from flight-recorder journals (``repro forensics``).

The paper's evaluation (Section IV) is a forensic reading of causal
chains: a ``#UD`` exit leads to a backtrace, a provenance verdict, and
either a benign recovery or a captured attack.  With a span journal
those chains are real trees (parent links recorded at runtime, see
:mod:`repro.telemetry.spans`); this module renders them as the
narrative the paper presents in Figures 4/5.  ``repro trace`` and the
report's ``trace`` section render the same narrative from the journal
of their own run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

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
#: Fields that may attribute a chain to an application.
_APP_FIELDS = ("comm", "app", "view_app")


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
    if node.is_event:
        return [
            f"{pad}{kind}: {_detail(rec.get('fields', {}))} "
            f"[cpu{rec.get('cpu', 0)} cycles {rec.get('cycles', 0)}]"
        ]
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
        line = f"{pad}{kind}: {_detail(attrs)}".rstrip(": ")
    lines = [line]
    for event in node.events:
        detail = _detail(event.get("fields", {}))
        lines.append(f"{pad}  . {event.get('kind', '?')} {detail}".rstrip())
    for child in node.children:
        lines.extend(narrate_tree(child, indent + 1))
    return lines


def _detail(fields: Dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(fields.items()))


def _mentions(node: SpanNode, app: str) -> bool:
    """Whether any span or event of the chain names ``app``."""
    if node.is_event:
        found = [node.record.get("fields", {})]
    else:
        found = [node.attrs] + [e.get("fields", {}) for e in node.events]
    return any(
        fields.get(name) == app for fields in found for name in _APP_FIELDS
    ) or any(_mentions(child, app) for child in node.children)


def chains_for_app(data: JournalData, app: str) -> JournalData:
    """``data`` cut to the causal chains attributable to ``app``: those
    with a span or event whose ``comm``, ``app`` or ``view_app`` is it."""
    kept: List[Dict] = []

    def collect(node: SpanNode) -> None:
        kept.append(node.record)
        kept.extend(node.events)
        for child in node.children:
            collect(child)

    for tree in build_span_trees(data.records):
        if _mentions(tree, app):
            collect(tree)
    kept.sort(key=lambda record: record["seq"])
    return JournalData(
        header=data.header, records=kept, footer=data.footer, torn=data.torn
    )


def _verdict_counts(trees: List[SpanNode]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for tree in trees:
        for node in tree.find("provenance"):
            verdict = node.attrs.get("verdict", "?")
            counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def render_journal_narrative(data: JournalData, limit: int = 50) -> str:
    """The full ``repro forensics`` rendering for one journal.

    Only *eventful* chains are narrated -- exits whose subtree holds a
    span or an event (a recovery, a view switch, a context-switch trap);
    plain exits would drown them out.  Events outside any span read in
    cycle order between the chains.
    """
    trees = build_span_trees(data.records)
    eventful = [
        tree
        for tree in trees
        if tree.kind != "vmexit" or tree.children or tree.events
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

    shown = [tree for tree in eventful if tree not in attacks][: limit or None]
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


def render_forensics(path: Union[str, Path]) -> str:
    """Read a journal file and render its narrative."""
    path = Path(path)
    if path.is_file() and read_header(path) is None:
        raise JournalError(f"{path} is not a journal: it has no journal header")
    return render_journal_narrative(load_journal(path))
