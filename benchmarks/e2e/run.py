"""The repo's one end-to-end benchmark.  See README.md beside this file.

Two ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` runs one workload
  in this process and prints one JSON object as its last line (the
  ``BENCHMARK.json`` contract: end-to-end metrics with ``--trace 0``,
  per-layer metrics with ``--trace 1``);
* ``run.py [--workload W] [--seed N] [--runs R] [--smoke] [--out PATH]``
  runs every (or one) workload, each run in a fresh subprocess so peak RSS
  is per run, plus one traced run per workload, prints every metric by name
  with its unit and writes the full record (raw samples, hygiene, spans).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# One client, one thread: unpinned BLAS burns both cores on linear_l1 and
# triples run-to-run spread on a 2-core box.  Must precede the numpy import.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: (name, unit, better, bound).  Mirrored in BENCHMARK.json; the smoke test
#: asserts the two agree.  Every workload emits every one of them.
END_TO_END = (
    ("op_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

_S, _MS, _N, _R, _MB = "s", "ms", "count", "ratio", "MB"
#: (name, unit, better).  Layers are the package names under src/repro/.
PER_LAYER = (
    ("datasets.build_s", _S, "lower"),
    ("discovery.profile_s", _S, "lower"),
    ("discovery.match_s", _S, "lower"),
    ("discovery.table_pairs", _N, "lower"),
    ("discovery.rss_hwm_mb", _MB, "lower"),
    ("discovery.pairs_rematched", _N, "lower"),
    ("discovery.pairs_reused", _N, "higher"),
    ("discovery.match_reuse_ratio", _R, "higher"),
    ("discovery.reprofile_ms_p50", _MS, "lower"),
    ("graph.relationships", _N, "lower"),
    ("graph.paths_enumerated", _N, "lower"),
    ("graph.enumerate_s", _S, "lower"),
    ("core.discover_s", _S, "lower"),
    ("core.paths_explored", _N, "lower"),
    ("core.paths_pruned_quality", _N, "higher"),
    ("core.joins_pruned_similarity", _N, "higher"),
    ("core.paths_ranked", _N, "higher"),
    ("core.rank_yield", _R, "higher"),
    ("core.orchestration_s", _S, "lower"),
    ("dataframe.sample_s", _S, "lower"),
    ("dataframe.index_build_s", _S, "lower"),
    ("dataframe.split_take_s", _S, "lower"),
    ("dataframe.rows_probed_per_s", "1/s", "higher"),
    ("engine.replay_s", _S, "lower"),
    ("engine.materialize_s", _S, "lower"),
    ("engine.hops_executed", _N, "lower"),
    ("engine.index_builds", _N, "lower"),
    ("engine.rows_probed", _N, "lower"),
    ("engine.cache_hit_ratio", _R, "higher"),
    ("engine.rss_hwm_mb", _MB, "lower"),
    ("selection.replay_s", _S, "lower"),
    ("selection.batches_scored", _N, "lower"),
    ("selection.features_ranked", _N, "lower"),
    ("selection.scalar_fallbacks", _N, "lower"),
    ("selection.code_reuse_ratio", _R, "higher"),
    ("selection.accept_ratio", _R, "higher"),
    ("ml.encode_s", _S, "lower"),
    ("ml.fit_s", _S, "lower"),
    ("ml.predict_s", _S, "lower"),
    ("ml.models_trained", _N, "lower"),
    ("ml.mean_features", _N, "lower"),
    ("ml.fit_share", _R, "lower"),
    ("ml.best_accuracy", "fraction", "higher"),
    ("ml.rss_hwm_mb", _MB, "lower"),
    ("service.cold_start_s", _S, "lower"),
    ("service.ops_per_s", "1/s", "higher"),
    ("service.discover_miss_ms_p50", _MS, "lower"),
    ("service.discover_miss_ms_p90", _MS, "lower"),
    ("service.augment_miss_ms_p50", _MS, "lower"),
    ("service.mutation_ms_p50", _MS, "lower"),
    ("service.mutation_ms_p75", _MS, "lower"),
    ("service.hit_ms_p50", _MS, "lower"),
    ("service.queue_ms_p50", _MS, "lower"),
    ("service.execute_ms_p50", _MS, "lower"),
    ("service.result_cache_hit_ratio", _R, "higher"),
    ("service.results_invalidated", _N, "lower"),
    ("service.hop_entries_invalidated", _N, "lower"),
    ("service.hop_cache_hit_ratio", _R, "higher"),
    ("obs.tracing_overhead_ratio", _R, "lower"),
    ("trace.reference_op_s", _S, "lower"),
    ("trace.staged_overhead_ratio", _R, "lower"),
    ("trace.attributed_ratio", _R, "higher"),
)

WORKLOAD_NAMES = ("paper_augment", "wide_match", "dense_discover", "service_mixed")
MIN_OPS = 4
SETUP_REPS = 3
#: An op that got less than this share of one core was not alone on the box.
CONTENDED_BELOW = 0.8


def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile; 0.0 when there are no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def hygiene(seed: int, smoke: bool) -> dict:
    import numpy
    from repro.obs import git_revision

    return {
        "seed": seed,
        "smoke": smoke,
        "git_rev": git_revision(HERE) or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ[name] for name in THREAD_ENV},
        "loadavg_1m": os.getloadavg()[0],
    }


def timed(fn):
    """``(wall_s, cpu_s, value_or_None, error_or_None)`` of one call."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        value, error = fn(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        value, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - wall, time.process_time() - cpu, value, error


def service_latencies(requests, wall_s: float) -> dict:
    """Client-side latency summary of a request stream (with sample counts)."""
    reads = [r for r in requests if r.kind != "update"]
    groups = {
        "discover_miss": [r.ms for r in reads if r.kind == "discover" and not r.cache_hit],
        "augment_miss": [r.ms for r in reads if r.kind == "augment" and not r.cache_hit],
        "mutation": [r.ms for r in requests if r.kind == "update"],
        "hit": [r.ms for r in reads if r.cache_hit],
    }
    return {
        "service.ops_per_s": len(requests) / wall_s,
        "service.discover_miss_ms_p50": percentile(groups["discover_miss"], 50),
        "service.discover_miss_ms_p90": percentile(groups["discover_miss"], 90),
        "service.augment_miss_ms_p50": percentile(groups["augment_miss"], 50),
        "service.mutation_ms_p50": percentile(groups["mutation"], 50),
        "service.mutation_ms_p75": percentile(groups["mutation"], 75),
        "service.hit_ms_p50": percentile(groups["hit"], 50),
        "service.queue_ms_p50": percentile([r.queue_s * 1e3 for r in reads], 50),
        "service.execute_ms_p50": percentile([r.execute_s * 1e3 for r in reads], 50),
        "service.result_cache_hit_ratio": len(groups["hit"]) / max(1, len(reads)),
        "sample_counts": {k: len(v) for k, v in groups.items()},
    }


def run_untraced(workload, seed: int, seconds: float, smoke: bool, import_s: float) -> dict:
    """Set up (several times), warm up once, then time ops for ``seconds``."""
    import checks
    from staged import rss_mb

    setups = []
    reps = 1 if smoke else SETUP_REPS
    for rep in range(reps):
        start = time.perf_counter()
        lake = workload.build(seed, smoke)
        state = workload.prepare(lake, seed)
        setups.append(time.perf_counter() - start)
        if rep < reps - 1:
            workload.teardown(state)

    ops, digests, failures, raised = [], [], {}, set()
    try:
        warmup_s, _, _, error = timed(lambda: workload.op(lake, state))
        if error:
            raise RuntimeError(f"warm-up op failed: {error}")
        if workload.service:
            state.requests.clear()
        phase_start = time.perf_counter()
        while True:
            wall, cpu, outcome, error = timed(lambda: workload.op(lake, state))
            index = len(ops)
            ops.append({
                "wall_s": wall,
                "cpu_s": cpu,
                "contended": cpu / wall < CONTENDED_BELOW,
            })
            if error:
                failures[index] = [error]
                raised.add(index)
            elif not workload.service:
                digests.append((index, checks.digest(lake, *outcome)))
            if len(ops) >= (2 if smoke else MIN_OPS) and time.perf_counter() - phase_start >= seconds:
                break
        phase_s = time.perf_counter() - phase_start
        extra = {}
        if workload.service:
            extra = service_latencies(state.requests, phase_s)
            first_block = state.requests[0].block
            for block, messages in checks.verify_service(workload, state).items():
                failures.setdefault(block - first_block, []).extend(messages)
        else:
            golden = checks.golden_for(workload.name, seed, smoke)
            verdicts = checks.check_digests([d for _, d in digests], golden)
            for (index, _), messages in zip(digests, verdicts):
                if messages:
                    failures.setdefault(index, []).extend(messages)
    finally:
        workload.teardown(state)

    # An op that raised did not do the work, so its time is not a sample;
    # one that completed with a wrong answer still took that long.
    good = [op["wall_s"] for i, op in enumerate(ops) if i not in raised]
    if not good:
        raise RuntimeError(f"every op raised: {failures}")
    metrics = {
        # Every op of a run does the same deterministic work, so a slower
        # repeat is interference from the host, not the program: the fastest
        # op is the estimate (README "Noise" has the measurements behind this).
        "op_s": min(good),
        "setup_s": import_s + statistics.median(setups) + warmup_s,
        "peak_rss_mb": rss_mb(),
    }
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failures": failures,
        "ops": ops,
        "samples": {
            "op_s": [op["wall_s"] for op in ops],
            "setup_build_s": setups,
            "import_s": import_s,
            "warmup_op_s": warmup_s,
        },
        "digest": digests[0][1] if digests else None,
        "service": extra,
    }


def run_traced(workload, seed: int, smoke: bool) -> dict:
    """One staged, span-recorded pass; fixed work so counts repeat exactly."""
    import checks
    from staged import Spans, reprofile_ms, run_staged
    from workloads import TRACED_BLOCKS, ServiceState

    spans = Spans()
    with spans.span("datasets.build"):
        lake = workload.build(seed, smoke)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics["datasets.build_s"] = spans.total("datasets.build")
    staged_metrics, messages = run_staged(workload, lake, spans, smoke)
    metrics.update(staged_metrics)
    failures = {0: messages} if messages else {}
    attempted = 1
    counts = {}

    if workload.service:
        state = ServiceState(lake, seed)
        try:
            phase_start = time.perf_counter()
            for _ in range(TRACED_BLOCKS[smoke]):
                spans.op += 1
                for request in state.run_block():
                    spans.add(f"service.{request.kind}", request.start, request.end)
            phase_s = time.perf_counter() - phase_start
            attempted += state.blocks_run
            latencies = service_latencies(state.requests, phase_s)
            counts = latencies.pop("sample_counts")
            metrics.update(latencies)
            for block, block_messages in checks.verify_service(workload, state).items():
                failures.setdefault(block + 1, []).extend(block_messages)
            updates = [r for r in state.requests if r.kind == "update"]
            rematched = sum(r.pairs_rematched for r in updates)
            reused = sum(r.pairs_reused for r in updates)
            stats = state.service.stats()
            counters = stats["metrics"]["counters"]
            metrics.update({
                "service.cold_start_s": state.cold_start_s,
                "service.results_invalidated": counters.get("service.results_invalidated", 0),
                "service.hop_entries_invalidated": counters.get("service.hop_entries_invalidated", 0),
                "service.hop_cache_hit_ratio": stats["hop_cache_hit_rate"],
                "discovery.pairs_rematched": rematched,
                "discovery.pairs_reused": reused,
                "discovery.match_reuse_ratio": reused / max(1, rematched + reused),
                "discovery.reprofile_ms_p50": reprofile_ms(lake, spans),
            })
        finally:
            state.service.close()
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "sample_counts": counts,
        "trace": spans.dump(),
    }


def child_main(args) -> int:
    """One workload, in this process; last stdout line is the contract JSON."""
    try:
        import numpy  # noqa: F401  (counted in import_s)
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    workload = WORKLOADS[args.workload]
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "hygiene": hygiene(args.seed, args.smoke),
    }
    if args.trace:
        record.update(run_traced(workload, args.seed, args.smoke))
        declared = [(n, u) for n, u, _ in PER_LAYER]
    else:
        record.update(run_untraced(workload, args.seed, args.seconds, args.smoke, import_s))
        declared = [(n, u) for n, u, _, _ in END_TO_END]
    failures = record.pop("failures")
    record["failed"] = len(failures)
    record["correct"] = not failures
    record["failure_messages"] = {str(k): v for k, v in failures.items()}
    record["metrics"] = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in declared
    }
    for name, entry in record["metrics"].items():
        print(f"{workload.name}  {name:34s} {entry['value']:.6g} {entry['unit']}")
    for op, messages in failures.items():
        print(f"{workload.name}  FAILED op {op}: {'; '.join(messages)}")
    if args.detail:
        Path(args.detail).write_text(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool, scratch: Path) -> dict:
    detail = scratch / f"{workload}-{seed}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--detail", str(detail),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if not detail.exists():
        raise RuntimeError(f"{' '.join(command)} died:\n{done.stdout}\n{done.stderr}")
    record = json.loads(detail.read_text())
    record["exit_code"] = done.returncode
    return record


def orchestrate(args) -> int:
    """Every workload in fresh subprocesses; print and write everything."""
    from compare import summary

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else (1 if args.smoke else spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    out = {
        "schema": 1,
        "mode": "smoke" if args.smoke else "full",
        "seconds": seconds,
        "end_to_end": [
            dict(zip(("name", "unit", "better", "bound"), row)) for row in END_TO_END
        ],
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(prefix="e2e-") as scratch:
        for name in names:
            runs = [
                spawn(name, args.seed + i, seconds, 0, args.smoke, Path(scratch))
                for i in range(args.runs)
            ]
            traced = spawn(name, args.seed, seconds, 1, args.smoke, Path(scratch))
            out["workloads"][name] = {"runs": runs, "traced": traced}
            attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
            failed = sum(r["failed"] for r in runs) + traced["failed"]
            ok = ok and failed == 0
            print(f"\n== {name}: {len(runs)} run(s), seeds {args.seed}..{args.seed + args.runs - 1}, "
                  f"fail_ratio {failed}/{attempted}")
            for metric, unit, better, bound in END_TO_END:
                median, q1, q3, spread = summary(runs, metric)
                print(f"  {metric:34s} {median:12.6g} {unit:8s} ({better} is better, bound {bound:.0%}; "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.1%} over {len(runs)} run(s))")
            ops = [op for r in runs for op in r["ops"]]
            contended = sum(op["contended"] for op in ops)
            print(f"  timed ops {len(ops)}, contended (cpu/wall < {CONTENDED_BELOW}) {contended}")
            counts = traced.get("sample_counts", {})
            for metric, unit, _ in PER_LAYER:
                group = metric.partition(".")[2].partition("_ms")[0]
                note = f"  (n={counts[group]})" if group in counts else ""
                print(f"  {metric:34s} {traced['metrics'][metric]['value']:12.6g} {unit}{note}")
            for record in runs + [traced]:
                for op, messages in record["failure_messages"].items():
                    print(f"  FAILED seed {record['hygiene']['seed']} trace {record['trace']} op {op}: {'; '.join(messages)}")
    path = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="e2e-out-")) / "e2e.json"
    path.write_text(json.dumps(out))
    print(f"\nfull record (samples, hygiene, spans): {path}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="given: run the one workload in this process (driver contract)")
    parser.add_argument("--smoke", action="store_true", help="tiny lakes; never writes a tracked file")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="where to write the full record (default: a temp dir)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.trace is None:
        return orchestrate(args)
    if args.workload is None or args.seconds is None:
        parser.error("--trace needs --workload and --seconds")
    return child_main(args)


if __name__ == "__main__":
    sys.exit(main())
