"""Run manifests: the reproducibility record attached to every result.

A :class:`RunManifest` freezes everything needed to trust — and re-run —
one pipeline invocation: the config snapshot, seed, a fingerprint of the
input tables, the git revision of the working tree, the tracer's timing
tree, the metrics-registry payload and the flattened structured event
log.  ``DiscoveryResult``, ``AugmentationResult`` and every
``BaselineResult`` carry one on their ``run_manifest`` field; benchmark
summaries embed them next to the figures they certify.

Manifests are plain JSON on disk (:meth:`RunManifest.save`, read back
with :meth:`RunManifest.from_dict`) and are validated by
:func:`repro.obs.schema.validate_manifest`; ``python -m repro.obs``
pretty-prints or re-exports a saved one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .metrics import MetricsRegistry
from .tracer import Tracer, flat_node

__all__ = [
    "SCHEMA_VERSION",
    "RunManifest",
    "build_manifest",
    "config_snapshot",
    "dataset_fingerprint",
    "flat_node",
    "git_revision",
    "synthetic_root",
]

#: Bump when the manifest layout changes incompatibly.
SCHEMA_VERSION = 1


def config_snapshot(config) -> dict:
    """JSON-safe snapshot of a (dataclass) configuration object.

    Values that are not JSON scalars are stringified rather than dropped,
    so the snapshot stays loadable no matter what a config grows.
    """
    if config is None:
        return {}
    if is_dataclass(config):
        items = [(f.name, getattr(config, f.name)) for f in fields(config)]
    elif isinstance(config, dict):
        items = list(config.items())
    else:
        items = [(k, v) for k, v in vars(config).items() if not k.startswith("_")]
    snapshot = {}
    for name, value in items:
        if value is None or isinstance(value, (bool, int, float, str)):
            snapshot[name] = value
        else:
            snapshot[name] = str(value)
    return snapshot


def dataset_fingerprint(tables) -> str:
    """Stable SHA-256 digest of a set of tables' shapes and schemata.

    Accepts an iterable of :class:`repro.dataframe.Table` or a
    :class:`repro.graph.DatasetRelationGraph` (fingerprinting every table
    it holds).  The digest covers names, row counts and column names —
    enough to detect "same code, different lake" mismatches cheaply
    without hashing cell data.
    """
    table_names = getattr(tables, "table_names", None)
    if table_names is not None:  # a DRG
        tables = [tables.table(name) for name in table_names]
    parts = []
    for table in tables:
        parts.append(
            f"{table.name}|{table.n_rows}|{','.join(table.column_names)}"
        )
    digest = hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()
    return digest[:16]


@functools.lru_cache(maxsize=None)
def git_revision(start: Path | None = None) -> str:
    """Short git revision of the enclosing working tree ('' when absent).

    Reads ``.git/HEAD`` directly (no subprocess, no git dependency) and
    resolves one level of symbolic ref, covering the normal layouts
    including ``packed-refs``.  Resolved once per ``start`` per process:
    the service builds a manifest for every response.
    """
    directory = (start or Path(__file__)).resolve()
    if directory.is_file():
        directory = directory.parent
    for candidate in (directory, *directory.parents):
        git_dir = candidate / ".git"
        if not git_dir.is_dir():
            continue
        try:
            head = (git_dir / "HEAD").read_text().strip()
            if not head.startswith("ref:"):
                return head[:12]
            ref = head.split(None, 1)[1]
            ref_file = git_dir / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()[:12]
            packed = git_dir / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(ref) and not line.startswith("#"):
                        return line.split()[0][:12]
        except OSError:
            return ""
        return ""
    return ""


def synthetic_root(name: str, children: list[dict], **attrs) -> dict:
    """A span-tree node wrapping pre-rendered child trees.

    Used to compose one manifest out of several phases (e.g. the
    ``augment`` root over the ``discover`` and ``train`` trees).  Duration
    is the sum of the children's durations; start is the earliest child start.
    """
    children = [c for c in children if c]
    duration = sum(int(c.get("duration_ns", 0)) for c in children)
    starts = [int(c["start_ns"]) for c in children if c.get("start_ns")]
    return {
        "name": name,
        "start_ns": min(starts) if starts else 0,
        "duration_ns": duration,
        "attrs": dict(attrs),
        "events": [],
        "children": children,
    }


def _iter_tree(node: dict, path: str = ""):
    """Pre-order walk over a span-tree dict, yielding (path, node)."""
    if not node:
        return
    here = f"{path}/{node.get('name', '?')}" if path else node.get("name", "?")
    yield here, node
    for child in node.get("children", ()):
        yield from _iter_tree(child, here)


@dataclass(frozen=True)
class RunManifest:
    """Frozen reproducibility record of one pipeline run.

    Attributes
    ----------
    stage:
        What ran: ``discovery``, ``augment``, or a baseline's name.
    seed:
        The run's determinism seed.
    config:
        JSON-safe snapshot of the run's configuration ({} when none).
    dataset_fingerprint:
        Digest of the input tables (see :func:`dataset_fingerprint`).
    git_rev:
        Short revision of the enclosing git tree ('' outside one).
    timing:
        The tracer's span tree as nested dicts; a synthesised flat root
        when the run executed with tracing disabled.
    metrics:
        :meth:`repro.obs.MetricsRegistry.as_dict` payload.
    events:
        Flattened structured event log: every span event with the span
        path it occurred under.
    wall_seconds:
        The run's wall-clock time as the caller measured it; the timing
        tree sums to this within tolerance for traced runs.
    """

    stage: str
    seed: int = 0
    config: dict = field(default_factory=dict)
    dataset_fingerprint: str = ""
    git_rev: str = ""
    timing: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    events: tuple = ()
    wall_seconds: float = 0.0
    created_at: str = ""
    schema_version: int = SCHEMA_VERSION

    # -- derived views ------------------------------------------------------

    def stage_seconds(self) -> dict[str, float]:
        """Seconds aggregated per span name over the whole timing tree.

        The per-stage cost breakdown benchmarks report: e.g.
        ``{"discover": 1.2, "hop": 0.9, "join": 0.5, "selection": 0.3}``.
        """
        totals: dict[str, float] = {}
        for __, node in _iter_tree(self.timing):
            name = node.get("name", "?")
            totals[name] = totals.get(name, 0.0) + node.get("duration_ns", 0) / 1e9
        return totals

    def stage_summary(self) -> str:
        """Compact one-line stage breakdown for report rows."""
        stages = self.stage_seconds()
        if not stages:
            return "(untraced)"
        return " ".join(f"{name}={seconds:.3f}s" for name, seconds in stages.items())

    def timing_total_seconds(self) -> float:
        """The timing-tree root's duration."""
        return self.timing.get("duration_ns", 0) / 1e9 if self.timing else 0.0

    def n_events(self) -> int:
        return len(self.events)

    # -- (de)serialisation --------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "stage": self.stage,
            "seed": self.seed,
            "created_at": self.created_at,
            "git_rev": self.git_rev,
            "dataset_fingerprint": self.dataset_fingerprint,
            "wall_seconds": self.wall_seconds,
            "config": dict(self.config),
            "timing": self.timing,
            "metrics": self.metrics,
            "events": [dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(
            stage=data["stage"],
            seed=int(data.get("seed", 0)),
            config=dict(data.get("config", {})),
            dataset_fingerprint=data.get("dataset_fingerprint", ""),
            git_rev=data.get("git_rev", ""),
            timing=dict(data.get("timing", {})),
            metrics=dict(data.get("metrics", {})),
            events=tuple(data.get("events", ())),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            created_at=data.get("created_at", ""),
            schema_version=int(data.get("schema_version", SCHEMA_VERSION)),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path


def _flatten_events(timing: dict) -> tuple:
    """Collect every span event, stamped with its span path."""
    collected = []
    for path, node in _iter_tree(timing):
        for event in node.get("events", ()):
            collected.append({"span": path, **event})
    collected.sort(key=lambda e: e.get("t_ns", 0))
    return tuple(collected)


def build_manifest(
    stage: str,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    config=None,
    dataset=None,
    seed: int = 0,
    wall_seconds: float | None = None,
    timing: dict | None = None,
    records=(),
    counters: dict[str, int] | None = None,
    gauges: dict[str, float] | None = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` from a run's observability state.

    ``dataset`` is anything :func:`dataset_fingerprint` accepts (a DRG or
    an iterable of tables); ``timing`` overrides the tracer's tree (used
    when composing multi-phase manifests).  ``records`` are the run's
    stats records (anything with ``publish(registry)``; None entries are
    skipped), published in order before the loose ``counters`` and
    ``gauges``.  A run with no tree at all gets a single node covering
    ``wall_seconds`` so the per-stage breakdown is never empty.
    """
    if timing is None:
        timing = tracer.timing_tree() if tracer is not None else {}
    if wall_seconds is None:
        wall_seconds = timing.get("duration_ns", 0) / 1e9 if timing else 0.0
    if not timing:
        timing = flat_node(stage, wall_seconds, traced=False)
    registry = registry if registry is not None else MetricsRegistry()
    for record in records:
        if record is not None:
            record.publish(registry)
    for name, value in (counters or {}).items():
        registry.counter(name).inc(value)
    for name, value in (gauges or {}).items():
        registry.gauge(name).set(value)
    return RunManifest(
        stage=stage,
        seed=seed,
        config=config_snapshot(config),
        dataset_fingerprint=dataset_fingerprint(dataset) if dataset is not None else "",
        git_rev=git_revision(),
        timing=timing,
        metrics=registry.as_dict(),
        events=_flatten_events(timing),
        wall_seconds=float(wall_seconds),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
