"""Telemetry exporters: JSON snapshots, Prometheus text, terminal text.

Three render targets:

* :func:`snapshot` / :func:`to_json` -- a machine-readable dump of every
  counter and histogram, with the journal's loss accounting (the
  ``repro.cli trace -o`` file format);
* :func:`format_prometheus` -- Prometheus text exposition over a
  snapshot dict (shared by the serve daemon's scrape surface and
  ``repro report --format prom``);
* :func:`format_counters` -- the terminal rendering used by the
  ``trace`` CLI verb and the evaluation report.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List

from repro.telemetry.core import Telemetry

_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def snapshot(telemetry: Telemetry) -> Dict[str, Any]:
    """A JSON-able dump of the registry."""
    data: Dict[str, Any] = {
        "counters": {
            name: counter.value
            for name, counter in sorted(telemetry.counters.items())
        },
        "labelled_counters": {
            name: {str(label): n for label, n in sorted(counter.values.items())}
            for name, counter in sorted(telemetry.labelled.items())
        },
        "histograms": {
            name: {
                "count": hist.count,
                "total": hist.total,
                "min": hist.min,
                "max": hist.max,
                "mean": hist.mean,
                "buckets": hist.nonzero_buckets(),
            }
            for name, hist in sorted(telemetry.histograms.items())
        },
    }
    if telemetry.journal is not None:
        data["journal"] = {
            "written": telemetry.journal.seq,
            "dropped": telemetry.journal.dropped,
        }
    return data


def to_json(telemetry: Telemetry, indent: int = 2) -> str:
    return json.dumps(snapshot(telemetry), indent=indent)


def prometheus_name(name: str) -> str:
    """A dotted instrument name as a legal Prometheus metric name."""
    return _PROM_BAD_CHARS.sub("_", name)


def _prometheus_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", " ")


def format_prometheus(
    snap: Dict[str, Any], prefix: str = "repro"
) -> str:
    """Prometheus text exposition (v0.0.4) over a snapshot dict.

    ``snap`` is the shape produced by :func:`snapshot` -- and by
    :func:`repro.telemetry.merge.empty_merge`, which shares it, so the
    daemon's lifetime job-telemetry merge exports through the same
    path.  Counters become ``<prefix>_<name>_total``, labelled counters
    add a ``label`` dimension, histograms emit cumulative ``le``
    buckets plus ``_sum``/``_count``.
    """
    lines: List[str] = []
    for name, value in sorted((snap.get("counters") or {}).items()):
        metric = f"{prefix}_{prometheus_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, values in sorted((snap.get("labelled_counters") or {}).items()):
        metric = f"{prefix}_{prometheus_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        for label, count in sorted(values.items()):
            lines.append(
                f'{metric}{{label="{_prometheus_label(str(label))}"}} '
                f"{count}"
            )
    for name, hist in sorted((snap.get("histograms") or {}).items()):
        metric = f"{prefix}_{prometheus_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for upper, count in hist.get("buckets") or []:
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{upper}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.get("count", 0)}')
        lines.append(f'{metric}_sum {hist.get("total", 0)}')
        lines.append(f'{metric}_count {hist.get("count", 0)}')
    return "\n".join(lines) + "\n"


def format_counters(telemetry: Telemetry) -> str:
    """Render every non-zero instrument, one per line."""
    lines = []
    for name, counter in sorted(telemetry.counters.items()):
        if counter.value:
            lines.append(f"{name:<40} {counter.value:>12}")
    for name, counter in sorted(telemetry.labelled.items()):
        if counter.values:
            lines.append(f"{name:<40} {counter.total:>12}")
            for label, n in sorted(
                counter.values.items(), key=lambda kv: -kv[1]
            )[:8]:
                lines.append(f"  {str(label):<38} {n:>12}")
    for name, hist in sorted(telemetry.histograms.items()):
        if hist.count:
            lines.append(
                f"{name:<40} {hist.count:>12}  "
                f"mean {hist.mean:>10.1f}  p99 {hist.percentile(0.99):>8}  "
                f"max {hist.max:>8}"
            )
    return "\n".join(lines)
