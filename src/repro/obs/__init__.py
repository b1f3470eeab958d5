"""Unified observability: tracing, metrics and run manifests.

The subsystem every layer of the pipeline reports into:

* :class:`Tracer` / :class:`Span` — hierarchical wall-clock spans
  (``discover > hop > join / selection``) with structured events and a
  cheap totals-only mode (:mod:`repro.obs.tracer`);
* :class:`MetricsRegistry` — named counters and gauges, and
  :class:`CounterRecord`, the one base the stats records
  (``ExecutionStats``, ``SelectionStats``, …) merge, serialise and
  publish through (:mod:`repro.obs.metrics`);
* :class:`RunManifest` — the frozen reproducibility record (config,
  seed, dataset fingerprint, git revision, timing tree, metrics, event
  log) attached to every result object (:mod:`repro.obs.manifest`);
* exporters — Chrome trace, aligned text, JSON
  (:mod:`repro.obs.export`), with schema validation
  (:mod:`repro.obs.schema`) and a CLI (``python -m repro.obs``).

The package is self-contained: it imports nothing from the rest of
:mod:`repro`, so every layer can depend on it without cycles.
"""

from .export import chrome_trace_json, render_text_report, to_chrome_trace
from .manifest import (
    SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    config_snapshot,
    dataset_fingerprint,
    flat_node,
    git_revision,
    synthetic_root,
)
from .metrics import Counter, CounterRecord, Gauge, MetricsRegistry
from .schema import MANIFEST_SCHEMA, SPAN_SCHEMA, validate, validate_manifest
from .tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "Tracer",
    "Span",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "CounterRecord",
    "Gauge",
    "RunManifest",
    "build_manifest",
    "config_snapshot",
    "dataset_fingerprint",
    "flat_node",
    "git_revision",
    "synthetic_root",
    "SCHEMA_VERSION",
    "to_chrome_trace",
    "chrome_trace_json",
    "render_text_report",
    "MANIFEST_SCHEMA",
    "SPAN_SCHEMA",
    "validate",
    "validate_manifest",
]
