"""Manifest exporters: Chrome trace, aligned text, JSON.

Three renderings of the same :class:`repro.obs.RunManifest`:

* :func:`to_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev (complete-event
  ``"ph": "X"`` entries per span, instant events per span event);
* :func:`render_text_report` — an aligned plain-text report (timing tree
  with per-node share of the root, metrics tables, event tally);
* JSON — the manifest's own :meth:`~repro.obs.RunManifest.to_json`.
"""

from __future__ import annotations

import json

__all__ = ["to_chrome_trace", "chrome_trace_json", "render_text_report"]


def to_chrome_trace(manifest) -> dict:
    """Convert a manifest's timing tree to a Chrome-trace payload.

    Timestamps are microseconds relative to the root span's start (the
    format's expected unit); span attributes and events ride along in
    ``args`` so they show in the trace viewer's detail pane.
    """
    timing = manifest.timing
    origin_ns = timing.get("start_ns", 0) if timing else 0
    trace_events: list[dict] = []

    def emit(node: dict, depth: int) -> None:
        start_ns = node.get("start_ns", 0)
        trace_events.append(
            {
                "name": node.get("name", "?"),
                "cat": manifest.stage,
                "ph": "X",
                "ts": (start_ns - origin_ns) / 1e3,
                "dur": node.get("duration_ns", 0) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": dict(node.get("attrs", {})),
            }
        )
        for event in node.get("events", ()):
            trace_events.append(
                {
                    "name": event.get("name", "event"),
                    "cat": manifest.stage,
                    "ph": "i",
                    "ts": (event.get("t_ns", start_ns) - origin_ns) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "s": "t",
                    "args": {k: v for k, v in event.items() if k not in ("name", "t_ns")},
                }
            )
        for child in node.get("children", ()):
            emit(child, depth + 1)

    if timing:
        emit(timing, 0)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "stage": manifest.stage,
            "seed": manifest.seed,
            "git_rev": manifest.git_rev,
            "dataset_fingerprint": manifest.dataset_fingerprint,
        },
    }


def chrome_trace_json(manifest, indent: int | None = None) -> str:
    """:func:`to_chrome_trace` as a JSON string."""
    return json.dumps(to_chrome_trace(manifest), indent=indent)


def _tree_rows(node: dict, root_ns: int, depth: int = 0, rows=None) -> list:
    if rows is None:
        rows = []
    name = node.get("name", "?")
    attrs = node.get("attrs", {})
    label = "  " * depth + name
    decor = " ".join(
        f"{k}={v}" for k, v in attrs.items() if k not in ("traced",)
    )
    if decor:
        label = f"{label} [{decor}]"
    duration_ns = node.get("duration_ns", 0)
    share = (duration_ns / root_ns * 100.0) if root_ns else 0.0
    rows.append((label, duration_ns / 1e9, share))
    for child in node.get("children", ()):
        _tree_rows(child, root_ns, depth + 1, rows)
    return rows


def render_text_report(manifest, max_tree_rows: int = 80) -> str:
    """Aligned plain-text rendering of a whole manifest."""
    lines = [
        f"run manifest — stage={manifest.stage} "
        f"(schema v{manifest.schema_version})",
        f"  created {manifest.created_at or '(unknown)'}  "
        f"git={manifest.git_rev or '(none)'}  seed={manifest.seed}  "
        f"lake={manifest.dataset_fingerprint or '(none)'}",
        f"  wall {manifest.wall_seconds:.4f}s, "
        f"{manifest.n_events()} event(s)",
    ]

    if manifest.timing:
        rows = _tree_rows(manifest.timing, manifest.timing.get("duration_ns", 0))
        shown = rows[:max_tree_rows]
        width = max(len(label) for label, *_ in shown)
        lines.append("")
        lines.append(f"  {'timing tree'.ljust(width)}   seconds      %")
        for label, seconds, share in shown:
            lines.append(f"  {label.ljust(width)}  {seconds:8.4f}  {share:5.1f}")
        if len(rows) > len(shown):
            lines.append(f"  … {len(rows) - len(shown)} more span(s)")
        stages = manifest.stage_seconds()
        lines.append("")
        lines.append(
            "  per-stage totals: "
            + " ".join(f"{k}={v:.4f}s" for k, v in stages.items())
        )

    metrics = manifest.metrics or {}
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    if counters or gauges:
        lines.append("")
        lines.append("  metrics")
        width = max((len(n) for n in (*counters, *gauges)), default=0)
        for name, value in counters.items():
            lines.append(f"    {name.ljust(width)}  {value}")
        for name, value in gauges.items():
            lines.append(f"    {name.ljust(width)}  {value:.4f}")

    if manifest.events:
        tally: dict[str, int] = {}
        for event in manifest.events:
            key = event.get("name", "event")
            tally[key] = tally.get(key, 0) + 1
        lines.append("")
        lines.append(
            "  events: "
            + ", ".join(f"{name} x{count}" for name, count in sorted(tally.items()))
        )
    return "\n".join(lines)
