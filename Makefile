.PHONY: check test test-faults test-parallel test-service test-anytime test-exp test-sketch trace-smoke exp-smoke bench-e2e-smoke bench-service bench-anytime bench-sketch

# The tier-1 tests (once), the smoke-mode micro-benches (which write no
# tracked file), the trace / experiment smokes and the end-to-end benchmark
# smoke; fails if the run changes what `git status --porcelain` reports.
check:
	scripts/check.sh

test:
	PYTHONPATH=src python -m pytest -x -q

# Fast gate: just the fault-isolation suites (injector, policies, budgets).
test-faults:
	PYTHONPATH=src python -m pytest -q tests/engine tests/core -k fault

# Fast gate: backend parity/stress/manifest suites (serial vs processes
# at max_workers=2, exercising the pickling path).
test-parallel:
	PYTHONPATH=src python -m pytest -q tests/engine/test_parallel_parity.py \
		tests/core/test_parallel_faults.py tests/obs/test_parallel_manifest.py

# Fast gate: the always-on service suites (request queue, warm result
# cache, incremental DRG maintenance, surgical invalidation, the
# mutation-equivalence property suite) plus the service micro-bench in
# smoke mode (warm >=5x cold, warm/cold parity).
test-service:
	PYTHONPATH=src python -m pytest -q tests/service \
		tests/graph/test_drg_delta.py tests/discovery/test_incremental.py \
		tests/engine/test_hop_cache.py
	PYTHONPATH=src python benchmarks/bench_service.py --smoke

# Fast gate: anytime budgeted-navigation suites (UCB frontier, run
# budgets, hop/run deadline enforcement, budget-vs-full-BFS parity and
# monotone-regret hypothesis properties, service per-request budgets)
# plus the anytime micro-bench in smoke mode (degeneration and
# infinite-budget parity).
test-anytime:
	PYTHONPATH=src python -m pytest -q tests/core/test_anytime.py \
		tests/engine/test_deadlines.py tests/service/test_service.py
	PYTHONPATH=src python benchmarks/bench_anytime.py --smoke

# Observability smoke: traced diamond-lake run, manifest schema validation,
# chrome-trace export, obs CLI, and the <2% no-op tracer overhead gate.
trace-smoke:
	PYTHONPATH=src python scripts/trace_smoke.py

# Fast gate: experiment-orchestration suites (spec validation/fingerprints,
# append-only store + queries, resumable runner + failure isolation,
# regression detector + reports, bench CLI/reporting satellites).
test-exp:
	PYTHONPATH=src python -m pytest -q tests/exp tests/bench

# Fast gate: every discovery suite (frozen COMA match goldens, name-score
# and Levenshtein exactness properties, matcher lifetime / id-reuse
# regressions, banding validation, LSH candidate index, filtered-matcher
# parity properties, containment-estimate statistics) plus the
# sketch-index micro-bench in smoke mode (bit-parity at recall 1.0,
# sub-quadratic pairs-scored growth).
test-sketch:
	PYTHONPATH=src python -m pytest -q tests/discovery
	PYTHONPATH=src python benchmarks/bench_sketch_index.py --smoke

# End-to-end experiment-orchestration smoke: runs experiments/smoke.json
# against a scratch store (2 baseline sweeps, clean diff gate, kill/resume
# with exact fingerprint counters, injected-slowdown regression flag).
exp-smoke:
	scripts/exp_smoke.sh

# End-to-end benchmark smoke (BENCHMARK.json's command on tiny lakes, every
# correctness gate, ~25 s, writes no tracked file) plus its contract tests,
# which sit outside tier-1 testpaths.  benchmarks/e2e/README.md is the
# performance record.
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke
	python3 -m pytest -q benchmarks/e2e

# Full service benchmark (warm requests vs cold single-shot, incremental
# mutation vs cold rebuild; parity- and speedup-gated); writes
# BENCH_service.json.
bench-service:
	PYTHONPATH=src python benchmarks/bench_service.py

# Full anytime benchmark (regret-vs-budget curve over covertype; parity-
# gated at infinite budget and >=2x-speedup-at-<=5%-regret-gated); writes
# BENCH_anytime.json.
bench-anytime:
	PYTHONPATH=src python benchmarks/bench_anytime.py

# Full sketch-index benchmark (paper-lake bit-parity for both exact
# matchers, 100-2000-table wide-lake scaling; recall-, slope- and
# >=5x-pruning-gated); writes BENCH_sketch_index.json.
bench-sketch:
	PYTHONPATH=src python benchmarks/bench_sketch_index.py
