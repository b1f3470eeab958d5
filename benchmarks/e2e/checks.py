"""Correctness gates: every timed op's output is checked, outside the timed region.

Three kinds of check, all of which mark the op failed when they trip:

* **invariants** (every seed): ops of one run produce identical digests
  (the determinism contract), every planted key edge of the wide lake is a
  DRG edge (recall 1.0), failure reports are empty, sampled service
  responses equal a cold ``from_discovery`` + ``AutoFeat`` run over the lake
  as of their ``snapshot_version``;
* **goldens** (seed 0, full size only): the digest equals the committed one
  in ``goldens.json``, so a change that alters rankings or accuracy
  deterministically is caught even though it agrees with itself;
* the traced run's staged == one-call assertions live in ``staged.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from repro import AutoFeat, AutoFeatConfig

from workloads import (
    AUGMENT_VARIANTS,
    DISCOVER_VARIANTS,
    VERIFY_MAX,
    Lake,
    ServiceState,
    Workload,
    cold_drg,
)

GOLDENS_PATH = Path(__file__).with_name("goldens.json")


def ranking_of(discovery) -> list[tuple]:
    """What "same ranked paths" means: order, score, accepted features."""
    return [
        (r.path.describe(), r.score, r.selected_features)
        for r in discovery.ranked_paths
    ]


def digest(lake: Lake, drg, result) -> dict:
    """JSON-able fingerprint of one pipeline op's output."""
    augment = hasattr(result, "discovery")
    discovery = result.discovery if augment else result
    ranking = [
        [describe, round(score, 9), list(features)]
        for describe, score, features in ranking_of(discovery)
    ]
    edges = {(a, ca, b, cb) for a, ca, b, cb, _ in drg.edge_fingerprint()}
    edges |= {(b, cb, a, ca) for a, ca, b, cb in edges}
    failures = discovery.failure_report.n_failures
    if augment:
        failures += result.failure_report.n_failures
    return {
        "ranking_sha256": hashlib.sha256(
            json.dumps(ranking).encode()
        ).hexdigest(),
        "top_k": [row[:2] for row in ranking[: AutoFeatConfig().top_k]],
        "best_accuracy": (
            result.best.accuracy if augment and result.best else None
        ),
        "relationships": drg.n_relationships,
        "missing_key_edges": sum(
            1 for edge in lake.expected_key_edges if edge not in edges
        ),
        "failure_records": failures,
    }


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and math.isclose(a, b, rel_tol=1e-9)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def golden_for(workload: str, seed: int, smoke: bool) -> dict | None:
    if seed != 0 or smoke:
        return None
    return json.loads(GOLDENS_PATH.read_text()).get(workload)


def check_digests(digests: list[dict], golden: dict | None) -> list[list[str]]:
    """Per-op failure messages for a run's pipeline digests."""
    out = []
    for d in digests:
        problems = []
        if d != digests[0]:
            problems.append("output differs from the first op of the run")
        if d["missing_key_edges"]:
            problems.append(f"{d['missing_key_edges']} planted key edges missing")
        if d["failure_records"]:
            problems.append(f"{d['failure_records']} failure records")
        for key, want in (golden or {}).items():
            if not _same(d[key], want):
                problems.append(f"{key} {d[key]!r} != golden {want!r}")
        out.append(problems)
    return out


def verify_service(workload: Workload, state: ServiceState) -> dict[int, list[str]]:
    """Sampled responses vs a cold rebuild at their snapshot version.

    Returns ``{block: messages}`` for blocks with a wrong response.  At most
    ``VERIFY_MAX`` evenly spaced samples are rebuilt (a cold DRG over the
    service lake costs more than a whole block).
    """
    lake = state.lake
    problems: dict[int, list[str]] = {}
    for request in state.requests:
        if request.failure_records:
            problems.setdefault(request.block, []).append(
                f"{request.kind}: {request.failure_records} failure records"
            )
    sampled = [r for r in state.requests if r.result is not None]
    if len(sampled) > VERIFY_MAX:
        step = (len(sampled) - 1) / (VERIFY_MAX - 1)
        sampled = [sampled[round(i * step)] for i in range(VERIFY_MAX)]
    for request in sampled:
        drg = cold_drg(state.versions[request.version])
        if request.kind == "discover":
            config = DISCOVER_VARIANTS[request.variant]
            cold = AutoFeat(drg, config).discover(lake.base, lake.label)
            same = ranking_of(cold) == ranking_of(request.result)
        else:
            config = AUGMENT_VARIANTS[request.variant]
            cold = AutoFeat(drg, config).augment(
                lake.base, lake.label, workload.model
            )
            same = (
                ranking_of(cold.discovery) == ranking_of(request.result.discovery)
                and cold.best.accuracy == request.result.best.accuracy
            )
        if not same:
            problems.setdefault(request.block, []).append(
                f"{request.kind} at version {request.version} differs from a cold rebuild"
            )
    return problems
