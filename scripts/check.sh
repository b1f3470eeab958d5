#!/usr/bin/env bash
# Repo-wide check: the per-subsystem fast gates (suites plus their
# micro-bench in smoke mode, which writes its summary to a temp dir),
# the end-to-end benchmark smoke and the tier-1 test suite.  Ends by
# requiring `git status --porcelain` to read as it did at the start
# (empty, on a committed tree): a check that dirties tracked files, or
# leaves unignored ones behind, fails.  Run from anywhere:
# `scripts/check.sh` or `make check`.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tree_before="$(git status --porcelain)"

echo "== fault-isolation fast gate =="
python -m pytest -q tests/engine tests/core -k fault

echo
echo "== parallel-backend fast gate =="
# Parity suites cover all three backends (threads and processes run at
# max_workers=2, which exercises worker pickling); the smoke bench gates
# on serial/threads/processes ranking parity.
python -m pytest -q tests/engine/test_parallel_parity.py \
    tests/core/test_parallel_faults.py tests/obs/test_parallel_manifest.py
python benchmarks/bench_parallel_discovery.py --smoke

echo
echo "== service fast gate =="
# Service suites cover the request queue, warm result cache, incremental
# DRG maintenance and surgical invalidation; the smoke bench gates on
# warm/cold parity and the >=5x warm-request speedup.
python -m pytest -q tests/service tests/graph/test_drg_delta.py \
    tests/discovery/test_incremental.py tests/engine/test_hop_cache.py
python benchmarks/bench_service.py --smoke

echo
echo "== chunked-join fast gate =="
# Encoding/chunked suites cover KeyDictionary interning + alignment, the
# out-of-core executor and spill manager, and the encoded-vs-scalar
# hypothesis parity properties; the smoke bench gates on kernel parity,
# the >=2x build+probe speedup and a spilling bounded-memory run.
python -m pytest -q tests/dataframe/test_encoding.py \
    tests/engine/test_chunked.py tests/engine/test_encoded_parity.py
python benchmarks/bench_chunked_join.py --smoke

echo
echo "== anytime-navigation fast gate =="
# Anytime suites cover the UCB frontier, run budgets, cooperative hop/run
# deadline enforcement, budgeted-vs-full-BFS parity and monotone-regret
# hypothesis properties, and service per-request budgets; the smoke bench
# gates on degeneration and infinite-budget parity over covertype.
python -m pytest -q tests/core/test_anytime.py \
    tests/engine/test_deadlines.py tests/service/test_service.py
python benchmarks/bench_anytime.py --smoke

echo
echo "== discovery fast gate =="
# All of tests/discovery (seconds): the frozen COMA match goldens, the
# bit-vector Levenshtein and name-score exactness properties, matcher
# lifetime / id-reuse regressions, banding validation, the LSH candidate
# index channels, filtered-vs-quadratic DRG parity properties and the
# containment-estimate statistics; the smoke bench gates on paper-lake
# bit-parity at recall 1.0 and sub-quadratic pairs-scored growth.
python -m pytest -q tests/discovery
python benchmarks/bench_sketch_index.py --smoke

echo
echo "== observability fast gate =="
python -m pytest -q tests/obs
python scripts/trace_smoke.py

echo
echo "== experiment-orchestration fast gate =="
# Spec/store/runner/report suites plus the end-to-end smoke matrix
# (experiments/smoke.json against a scratch store): two baseline sweeps,
# a clean regression diff, kill/resume with exact fingerprint counters,
# and an injected hop slowdown that must trip `diff --gate`.
python -m pytest -q tests/exp tests/bench
scripts/exp_smoke.sh

echo
echo "== end-to-end benchmark smoke =="
# BENCHMARK.json's command on tiny lakes (all four workloads, every
# correctness gate, no tracked file written) plus its contract tests.
make bench-e2e-smoke

echo
echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== engine hop-cache micro-bench (smoke) =="
python benchmarks/bench_engine_cache.py --smoke

echo
echo "== selection-kernel micro-bench (smoke) =="
python benchmarks/bench_selection_kernels.py --smoke

echo
echo "== clean tree =="
# Nothing above may touch a tracked file (smoke benches write to temp
# dirs) or leave an unignored one behind.
tree_after="$(git status --porcelain)"
if [ "$tree_after" != "$tree_before" ]; then
    echo "ERROR: the check changed the working tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo
echo "all checks passed"
