"""The four workloads: what they generate, set up, and time as one op.

Every workload is measured from outside the library: inputs come from the
public generators in :mod:`repro.datasets`, ops are calls into public
entry points with the library's default ``AutoFeatConfig()``.  No
``hop_latency_seconds``, no fault injector, no sleeps — real work only.

Sizes are chosen so one driver run (imports + three set-ups + warm-up op +
timed phase) stays between 20 and 35 s on a 2-core box; ``smoke`` sizes exist only
to exercise the code paths in seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro import AutoFeat, AutoFeatConfig, DatasetRelationGraph, DiscoveryService
from repro.datasets import DATASETS, make_wide_lake, rename_for_lake
from repro.datasets.splitter import split_into_lake
from repro.discovery import ComaMatcher

THRESHOLD = 0.55

#: One service block, the service workload's op: 2 update_table, 7 discover,
#: 1 augment (the 20/70/10 mix).  Single requests are bimodal (cache hit
#: ~0.4 ms, miss ~55 ms), so the op is a block, and the skeleton is fixed so
#: every block does the same kind of work: a mutation invalidates every
#: cached result, hence 5 discover misses, 2 hits (the repeats) and 1 augment
#: miss per block.  The seed picks which config variant plays a..d, which
#: augment variant runs and which satellite each mutation rewrites.
BLOCK = (
    "update", "discover:a", "discover:b", "discover:a", "augment",
    "discover:c", "update", "discover:a", "discover:d", "discover:d",
)
#: Traced service run: a fixed stream length so every count repeats exactly.
TRACED_BLOCKS = {False: 24, True: 3}
#: Every Nth response is checked against a cold rebuild, at most this many.
VERIFY_STRIDE = 50
VERIFY_MAX = 2


@dataclass(frozen=True)
class Lake:
    """Generated inputs of one workload — all the program ever sees."""

    tables: tuple
    base: str
    label: str
    expected_key_edges: tuple = ()


@dataclass
class Request:
    """One service request as the client saw it."""

    block: int
    kind: str
    variant: int
    start: float
    end: float
    cache_hit: bool = False
    queue_s: float = 0.0
    execute_s: float = 0.0
    version: int = 0
    pairs_rematched: int = 0
    pairs_reused: int = 0
    failure_records: int = 0
    result: object = field(default=None, repr=False)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _paper_lake(dataset: str, seed: int, **scale) -> Lake:
    """A registry spec in the data-lake setting (renamed keys, KFK dropped).

    ``seed`` offsets the value generator only: the snowflake topology stays
    the registry's, so the amount of work is comparable across seeds while
    every value the program sees changes.  Seed 0 is the registry's lake.
    """
    spec = replace(DATASETS[dataset], **scale)
    flat = replace(spec, seed=spec.seed + 1000 * seed).flat()
    bundle = split_into_lake(flat, spec.plan())
    return Lake(tuple(rename_for_lake(bundle)), bundle.base_name, bundle.label_column)


def _wide_lake(seed: int, n_tables: int, n_rows: int) -> Lake:
    lake = make_wide_lake(n_tables, n_rows=n_rows, seed=seed)
    return Lake(lake.tables, "t0000", "label", lake.expected_key_edges)


def cold_drg(lake_tables) -> DatasetRelationGraph:
    return DatasetRelationGraph.from_discovery(
        list(lake_tables), ComaMatcher(), threshold=THRESHOLD
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], Lake]
    #: Model trained by the pipeline this workload exercises (None: discover only).
    model: str | None
    #: Whether cold matching is part of the timed op (else it is set-up).
    match_in_op: bool
    #: Service workloads time request blocks, not one pipeline call.
    service: bool = False

    def pipeline(self, lake: Lake, drg: DatasetRelationGraph | None = None):
        """The one-call pipeline; the traced run decomposes exactly this."""
        drg = drg or cold_drg(lake.tables)
        autofeat = AutoFeat(drg)
        if self.model is None:
            return drg, autofeat.discover(lake.base, lake.label)
        return drg, autofeat.augment(lake.base, lake.label, self.model)

    def prepare(self, lake: Lake, seed: int):
        """Set-up beyond input generation; returns the op's state."""
        if self.service:
            return ServiceState(lake, seed)
        return None if self.match_in_op else cold_drg(lake.tables)

    def teardown(self, state) -> None:
        if self.service:
            state.service.close()

    def op(self, lake: Lake, state):
        if self.service:
            return state.run_block()
        return self.pipeline(lake, state)


#: Request configs; distinct configs are distinct result-cache keys.  All
#: keep the default traversal radius, so every mutation reaches every entry.
DISCOVER_VARIANTS = (
    AutoFeatConfig(),
    AutoFeatConfig(kappa=10),
    AutoFeatConfig(tau=0.8),
    AutoFeatConfig(min_relevance=0.02),
)
AUGMENT_VARIANTS = (AutoFeatConfig(), AutoFeatConfig(kappa=10))


class ServiceState:
    """A live service plus what the client must remember to verify it."""

    def __init__(self, lake: Lake, seed: int):
        self.lake = lake
        self.seed = seed
        started = time.perf_counter()
        self.service = DiscoveryService(lake.tables)
        self.cold_start_s = time.perf_counter() - started
        self.originals = list(lake.tables)
        self.current = list(lake.tables)
        #: Lake contents as of each snapshot version (tables are immutable).
        self.versions = {self.service.version: tuple(self.current)}
        self.requests: list[Request] = []
        self.blocks_run = 0
        self._until_verify = 0

    def run_block(self) -> list[Request]:
        """One closed-loop block: the next 10 requests of the seeded stream."""
        block = self.blocks_run
        self.blocks_run += 1
        rng = np.random.default_rng([self.seed, block])
        roles = dict(zip("abcd", rng.permutation(len(DISCOVER_VARIANTS))))
        out = []
        for step in BLOCK:
            kind, _, role = step.partition(":")
            variant = int(roles[role]) if role else None
            out.append(self._request(block, kind, variant, rng))
        self.requests.extend(out)
        return out

    def _request(self, block: int, kind: str, variant: int | None, rng) -> Request:
        service, lake = self.service, self.lake
        self._until_verify -= 1
        if kind == "update":
            # A 98% row-subsample of a random satellite's original rows.
            slot = 1 + int(rng.integers(len(self.originals) - 1))
            original = self.originals[slot]
            mutated = original.filter(rng.random(original.n_rows) < 0.98)
            start = time.perf_counter()
            report = service.update_table(mutated)
            end = time.perf_counter()
            self.current[slot] = mutated
            self.versions[report.version] = tuple(self.current)
            return Request(
                block, kind, slot, start, end,
                version=report.version,
                pairs_rematched=report.n_pairs_rematched,
                pairs_reused=report.n_pairs_reused,
            )
        if kind == "discover":
            start = time.perf_counter()
            response = service.discover(
                lake.base, lake.label, config=DISCOVER_VARIANTS[variant]
            )
        else:
            variant = int(rng.integers(len(AUGMENT_VARIANTS)))
            start = time.perf_counter()
            response = service.augment(
                lake.base, lake.label, model_name="linear_l1",
                config=AUGMENT_VARIANTS[variant],
            )
        end = time.perf_counter()
        # Keep the result of the first read at or after every
        # VERIFY_STRIDE-th request for the cold-rebuild check.
        keep = self._until_verify <= 0
        if keep:
            self._until_verify = VERIFY_STRIDE
        result = response.result
        discovery = result.discovery if kind == "augment" else result
        failures = discovery.failure_report.n_failures + (
            result.failure_report.n_failures if kind == "augment" else 0
        )
        return Request(
            block, kind, variant, start, end,
            cache_hit=response.cache_hit,
            queue_s=response.queue_seconds,
            execute_s=response.execute_seconds,
            version=response.snapshot_version,
            failure_records=failures,
            result=result if keep else None,
        )


def _dense_lake(seed: int, smoke: bool) -> Lake:
    scale = (
        dict(n_satellites=8, n_features=32, rows=300)
        if smoke
        else dict(n_satellites=24, n_features=72)
    )
    return _paper_lake("bioresponse", seed, **scale)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_augment",
            "covertype lake, cold COMA DRG then augment with lightgbm: the paper's "
            "journey, repro.ml GBDT training does ~94% of the work",
            lambda seed, smoke: _paper_lake(
                "covertype", seed, rows=60 if smoke else 1000
            ),
            model="lightgbm",
            match_in_op=True,
        ),
        Workload(
            "wide_match",
            "64-table wide lake, cold DRG (2016 table pairs) then discover, no "
            "training: repro.discovery matching does ~85% of the work, repro.ml none",
            lambda seed, smoke: _wide_lake(
                seed, 16 if smoke else 64, 100 if smoke else 400
            ),
            model=None,
            match_in_op=True,
        ),
        Workload(
            "dense_discover",
            "25-table bioresponse lake, DRG built in set-up, discover only: "
            "repro.selection does ~88% of the work, joins hit the hop cache",
            _dense_lake,
            model=None,
            match_in_op=False,
        ),
        Workload(
            "service_mixed",
            "DiscoveryService over 6000-row covertype, blocks of 7 discover, 1 "
            "augment(linear_l1), 2 update_table: writes beside reads, invalidation",
            lambda seed, smoke: _paper_lake(
                "covertype", seed, rows=600 if smoke else 6000
            ),
            model="linear_l1",
            match_in_op=False,
            service=True,
        ),
    )
}
