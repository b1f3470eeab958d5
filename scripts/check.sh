#!/usr/bin/env bash
# Repo-wide check: the tier-1 test suite (once), the legacy micro-benches
# in smoke mode (each writes its summary to a temp dir), the trace smoke,
# six paper-shape claim checks, the end-to-end benchmark smoke and two
# profiled ops.
# Performance is gated by benchmarks/e2e/compare.py, the paper by the
# `python -m repro.bench` shape claims; there is no third gate.  Ends by
# requiring `git status --porcelain` to read as it did at the start
# (empty, on a committed tree): a check that dirties tracked files, or
# leaves unignored ones behind, fails; then prints ROADMAP's three diet
# counters and the import floor (`import repro` wall ms and peak RSS).  Run from anywhere: `scripts/check.sh` or `make check`.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tree_before="$(git status --porcelain)"

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== micro-benches (smoke) =="
# Each gates on its own parity claim: warm/cold service parity and the
# >=5x warm-request speedup; degeneration and infinite-budget parity over
# covertype.
python benchmarks/bench_service.py --smoke
python benchmarks/bench_anytime.py --smoke

echo
echo "== observability smoke =="
python scripts/trace_smoke.py

echo
echo "== paper-shape claims =="
# Each prints its table and exits 1 naming any failed claim.  No --out,
# so no tracked results file is written.  traversal runs AutoFeat's
# augment end to end and checks bfs >= dfs - 0.05; matchers builds DRGs
# with the COMA, Lazo and distribution matchers, each through its one
# lake pass, match_lake (handed the threshold as its floor); fig3a and fig3b
# time the pipeline's relevance and redundancy kernels.
python -m repro.bench table2
python -m repro.bench eq3
python -m repro.bench traversal
python -m repro.bench matchers
python -m repro.bench fig3a
python -m repro.bench fig3b

echo
echo "== end-to-end benchmark smoke =="
# BENCHMARK.json's command on tiny lakes (all four workloads, every
# correctness gate, no tracked file written) plus its contract tests.
make bench-e2e-smoke

echo
echo "== profiler =="
# scripts/profile_op.py patches private names of the selection kernels and
# the join engine to count their work; one run keeps those names honest.
# wide_match matches in its op, so it also prints the lake pass's counts.
python scripts/profile_op.py --workload dense_discover --top 1
python scripts/profile_op.py --workload wide_match --top 1

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

echo
echo "== diet counters (ROADMAP reads these off) =="
echo "src/repro lines:       $(find src/repro -name '*.py' | xargs cat | wc -l)"
echo "AutoFeatConfig fields: $(python -c 'import dataclasses, repro; print(len(dataclasses.fields(repro.AutoFeatConfig)))')"
echo "Makefile targets:      $(sed -n 's/^\.PHONY://p' Makefile | wc -w)"
# The import floor (DESIGN.md §3): one fresh interpreter, numpy included,
# since every workload imports it first.
python - <<'PY'
import resource, time
t0 = time.perf_counter()
import numpy, repro
ms = (time.perf_counter() - t0) * 1e3
mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"import repro:          {ms:.0f} ms, ru_maxrss {mb:.1f} MB")
PY
