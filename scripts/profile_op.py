#!/usr/bin/env python3
"""Profile one op of an end-to-end benchmark workload.

    python scripts/profile_op.py --workload dense_discover [--seed 0] [--top 25]

Builds the workload exactly as ``benchmarks/e2e/run.py`` does (its
``workloads.py`` is imported, not copied), runs one warm-up op, prints the
min / median wall time of 5 untraced ops, then a cProfile of one more op
sorted by cumulative and by own time and, for ``service_mixed``, the
outcome memo's hits / misses per namespace (``selection``, ``train``) over
the profiled block; how many (selected × candidate) pairs the redundancy
kernel counted and how many candidates its early-rejection bound dropped
(every workload's op runs ``discover``); how many joined tables the op's
hops built (only training's ``materialize_path`` builds one: a discovery
hop walks its path's chain of row maps); how many training fits ran in a
process pool and how many inline, and a cProfile of the first pooled fit
run once more inline (a pool worker's calls are out of the profiler's
reach) with the GBDT split kernel's call count; the CPU time and the
largest peak RSS of the child processes — the fit pool's workers — over
the untraced ops (``RUSAGE_CHILDREN``, which ``RUSAGE_SELF`` cannot see);
how many verdicts of each kind the op's discovery runs logged; where one
traced op's ``discover`` time goes — its ``hop``, ``selection`` and
``sample`` spans, and what is left over at the coordinator between them —
and, for a workload that trains (``paper_augment``, ``service_mixed``),
where its ``train`` time goes — its ``path`` spans (materialise), its
``evaluate`` spans (fit) and the coordinator's leftover; for a workload that
matches in its op (``wide_match``, ``paper_augment``), the work counts of
COMA's lake pass at the DRG threshold: table pairs sharing a token, column
pairs intersected, name pairs bounded, column pairs name-scored and
matches emitted.  cProfile inflates
call-heavy Python and not native code, so use it to find candidates and the
untraced times — or the benchmark itself — to measure them.

Every workload, ``service_mixed`` included, runs its op on the calling
thread (the service starts no thread), so one ``cProfile.Profile`` sees it
all.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import cProfile
import inspect
import os
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

# Same pinning as benchmarks/e2e/run.py; must precede the numpy import.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

UNTRACED_OPS = 5

#: Training fits :func:`_counted_fit` ran in this process, i.e. inline.
_inline_fits = 0


def _counted_fit(*args):
    """``repro.ml.evaluate_accuracy``, counted.  Module-level, so a forked
    pool worker handed it finds it by name (and counts into its own copy)."""
    from repro.ml import automl

    global _inline_fits
    _inline_fits += 1
    return automl.evaluate_accuracy(*args)


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25, help="profile rows per table")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    lake = workload.build(args.seed, False)
    state = workload.prepare(lake, args.seed)
    try:
        workload.op(lake, state)  # warm-up
        walls = []
        before = [resource.getrusage(who) for who in _RUSAGE]
        for _ in range(UNTRACED_OPS):
            start = time.perf_counter()
            workload.op(lake, state)
            walls.append(time.perf_counter() - start)
        after = [resource.getrusage(who) for who in _RUSAGE]
    finally:
        workload.teardown(state)
    print(
        f"{args.workload} seed {args.seed}: {UNTRACED_OPS} untraced ops, "
        f"min {min(walls):.3f} s, median {statistics.median(walls):.3f} s"
    )
    cpu = [_cpu_seconds(b, a) / UNTRACED_OPS for b, a in zip(before, after)]
    print(
        f"CPU per untraced op: coordinator {cpu[0]:.3f} s, child processes "
        f"{cpu[1]:.3f} s; largest child peak RSS {after[1].ru_maxrss / 1024:.1f} MB "
        "(RUSAGE_CHILDREN: the fit pool's workers)"
    )

    profiler = cProfile.Profile()
    state = workload.prepare(lake, args.seed)
    try:
        workload.op(lake, state)  # warm-up
        memo_before = _memo_counters(workload, state)
        with _redundancy_work() as work:
            profiler.runcall(workload.op, lake, state)
        memo_after = _memo_counters(workload, state)
    finally:
        workload.teardown(state)
    attribution = _phase_attribution(workload, lake, args.seed)

    stats = pstats.Stats(profiler).strip_dirs()
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(args.top)
    for namespace, after in memo_after.items():
        before = memo_before[namespace]
        hits, misses = (after[k] - before[k] for k in ("hits", "misses"))
        print(
            f"{namespace} memo, profiled block: {hits} hits / {misses} misses "
            f"({hits / max(1, hits + misses):.0%}), {after['entries']} entries, "
            f"{after['evictions']} evictions"
        )
    if work["candidates"]:
        print(
            f"redundancy: {work['counted']} / {work['pairs']} selected×candidate "
            f"pairs counted, {work['rejected']} / {work['candidates']} "
            "candidates rejected by the bound"
        )
    print(
        f"hop tables materialised: {work['tables']} / hops {work['hops']} "
        "(only materialize_path builds one)"
    )
    print(f"training fits: {work['pooled']} pooled, {work['inline']} inline")
    if "pooled_fit" in work:
        _profile_fit(work["pooled_fit"], args.top)
    kinds = ", ".join(f"{kind} {n}" for kind, n in sorted(work["verdicts"].items()))
    print(f"verdicts: {sum(work['verdicts'].values())} ({kinds})")
    print(*attribution, sep="\n")
    if workload.match_in_op:
        print(_matching_line(lake))
    return 0


#: The coordinator's own resource usage, then its waited-for children's.
_RUSAGE = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)


def _cpu_seconds(before, after) -> float:
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def _memo_counters(workload, state) -> dict:
    """The service's memo counters per namespace ({} for a library workload)."""
    return state.service.stats()["memo"] if workload.service else {}


@contextlib.contextmanager
def _redundancy_work():
    """Count, while active, what the redundancy kernel and the hops do.

    ``pairs`` is |R_sel| × candidates summed over the kernel's calls — what
    a full walk counts — and ``counted`` the (selected × candidate) pairs
    it counted.  Under MIFS, MRMR and CMIM every rejection is the bound's
    (the last check is the full score); CIFE and JMI reject none by it.
    ``hops`` counts probed hops and ``tables`` the joined tables built;
    ``verdicts`` tallies the kinds of the verdicts ``discover`` logged;
    ``pooled`` and ``inline`` count the training fits handed to a pool and
    run in this process; ``pooled_fit`` keeps the first pooled fit's
    ``evaluate_accuracy`` arguments.
    """
    from repro import ml
    from repro.core import AutoFeat, streaming
    from repro.dataframe import JoinIndex
    from repro.engine import JoinEngine, parallel
    from repro.selection import kernels

    keys = ("counted", "pairs", "rejected", "candidates", "hops", "tables", "pooled")
    work = dict.fromkeys(keys, 0)
    work["verdicts"] = collections.Counter()
    kernel = streaming.batch_redundancy_scores
    signature = inspect.signature(kernel)
    pair_information = kernels._pair_information
    probe_hop, attach = JoinEngine.probe_hop, JoinIndex.attach
    discover = AutoFeat.discover

    def counting_pairs(left, right, given=None):
        if given is None:
            work["counted"] += left.shape[0] * right.shape[0]
        return pair_information(left, right, given)

    def counting_kernel(*args, **kwargs):
        scores = kernel(*args, **kwargs)
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        cache, method = call.arguments["cache"], call.arguments["method"]
        # Each candidate's relevance is one (candidate × label) pair.
        work["counted"] -= scores.shape[0]
        work["pairs"] += cache.n_selected * scores.shape[0]
        work["candidates"] += scores.shape[0]
        if method not in ("cife", "jmi"):
            work["rejected"] += int((scores <= 0.0).sum())
        return scores

    def counting(key, method):
        def counted(*args, **kwargs):
            work[key] += 1
            return method(*args, **kwargs)

        return counted

    def logging_discover(*args, **kwargs):
        result = discover(*args, **kwargs)
        work["verdicts"].update(verdict.kind for verdict in result.verdicts)
        return result

    def counting_pool(workers):
        pool = fit_pool(workers)
        submit = pool.submit

        def recording(fn, *fit):
            work["pooled"] += 1
            work.setdefault("pooled_fit", fit)
            return submit(fn, *fit)

        pool.submit = recording
        return pool

    fit_pool, evaluate_accuracy = parallel.fit_pool, ml.evaluate_accuracy
    streaming.batch_redundancy_scores = counting_kernel
    kernels._pair_information = counting_pairs
    JoinEngine.probe_hop = counting("hops", probe_hop)
    JoinIndex.attach = counting("tables", attach)
    AutoFeat.discover = logging_discover
    parallel.fit_pool, ml.evaluate_accuracy = counting_pool, _counted_fit
    inline = _inline_fits
    try:
        yield work
    finally:
        work["inline"] = _inline_fits - inline
        streaming.batch_redundancy_scores = kernel
        kernels._pair_information = pair_information
        JoinEngine.probe_hop, JoinIndex.attach = probe_hop, attach
        AutoFeat.discover = discover
        parallel.fit_pool, ml.evaluate_accuracy = fit_pool, evaluate_accuracy


def _profile_fit(fit, top: int) -> None:
    """cProfile ``evaluate_accuracy(*fit)`` in this process and print its top
    rows by own time, then the GBDT split kernel's calls and time."""
    from repro.ml import automl
    from repro.ml.gbdt import _HistTreeBuilder

    profiler = cProfile.Profile()
    profiler.runcall(automl.evaluate_accuracy, *fit)
    stats = pstats.Stats(profiler)
    kernel = _HistTreeBuilder._find_best_splits.__code__
    __, calls, __, seconds, __ = stats.stats.get(
        (kernel.co_filename, kernel.co_firstlineno, kernel.co_name), (0, 0, 0, 0.0, {})
    )
    print(f"one pooled fit ({fit[2]}, {len(fit[3])} features), profiled inline:")
    stats.strip_dirs().sort_stats("tottime").print_stats(top)
    print(
        f"split kernel: {calls} calls, {seconds:.3f} s of the fit's "
        f"{stats.total_tt:.3f} s profiled"
    )


#: Per phase of one op, the spans its time is split over (outermost only);
#: the rest of the phase's root is the coordinator's.
PHASE_SPANS = {
    "discover": ("hop", "selection", "sample"),
    "train": ("path", "evaluate"),
}


def _phase_attribution(workload, lake, seed) -> list[str]:
    """Split one traced op's ``discover`` and ``train`` time over their spans.

    Every ``discover`` / ``train_top_k`` the op runs is traced (the
    workload's own config may turn tracing off).  ``discover``: its
    ``hop``, ``selection`` and ``sample`` spans; the coordinator's
    leftover is frontier bookkeeping, verdicts and the manifest.
    ``train``: its ``path`` spans (materialise) and ``evaluate`` spans
    (the fit inline, or the wait for a pool's fit); the leftover is fit
    keys, submission and the best-path pick.  One line per phase the op
    ran.
    """
    from repro.core import AutoFeat
    from repro.obs import Tracer

    totals = {phase: collections.Counter() for phase in PHASE_SPANS}
    originals = AutoFeat.discover, AutoFeat.train_top_k, AutoFeat._tracer

    def add(counter, names, node):
        if node["name"] in names:
            counter[node["name"]] += node["duration_ns"]
            return
        for child in node.get("children", ()):
            add(counter, names, child)

    def traced(method, phase):
        def run(*args, **kwargs):
            result = method(*args, **kwargs)
            root = result.run_manifest.timing
            if phase == "train":  # the augment manifest: discover + train
                (root,) = (c for c in root["children"] if c["name"] == "train")
            totals[phase][phase] += root["duration_ns"]
            for child in root.get("children", ()):
                add(totals[phase], PHASE_SPANS[phase], child)
            return result

        return run

    state = workload.prepare(lake, seed)
    try:
        workload.op(lake, state)  # warm-up
        AutoFeat.discover = traced(originals[0], "discover")
        AutoFeat.train_top_k = traced(originals[1], "train")
        AutoFeat._tracer = lambda self: Tracer(enabled=True)
        workload.op(lake, state)
    finally:
        AutoFeat.discover, AutoFeat.train_top_k, AutoFeat._tracer = originals
        workload.teardown(state)
    lines = []
    for phase, names in PHASE_SPANS.items():
        whole = totals[phase][phase]
        if not whole:
            continue
        parts = [(name, totals[phase][name]) for name in names]
        parts.append(("coordinator", whole - sum(ns for __, ns in parts)))
        shares = " + ".join(
            f"{name} {ns / 1e9:.3f} s ({ns / max(1, whole):.0%})" for name, ns in parts
        )
        lines.append(f"{phase}, one traced op: {whole / 1e9:.3f} s = {shares}")
    return lines


def _matching_line(lake) -> str:
    """The work counts of COMA's lake pass on a cold DRG build.

    The pass intersects only the column pairs whose sketches share a token,
    bounds each distinct name pair once, and name-scores only the column
    pairs whose bound reaches the DRG threshold it is handed as its floor.
    """
    from repro.discovery import ComaMatcher, profile_table
    from workloads import THRESHOLD

    profiles = [profile_table(table) for table in lake.tables]
    pass_ = ComaMatcher().match_lake_profiles(profiles, THRESHOLD)
    tables = len(profiles) * (len(profiles) - 1) // 2
    return (
        f"lake pass: {pass_.table_pairs_sharing} / {tables} table pairs share a token, "
        f"{pass_.column_pairs_intersected} column pairs intersected, "
        f"{pass_.name_pairs_bounded} name pairs bounded, "
        f"{pass_.column_pairs_name_scored} column pairs name-scored, "
        f"{sum(map(len, pass_.pairs.values()))} emitted"
    )


if __name__ == "__main__":
    sys.exit(main())
