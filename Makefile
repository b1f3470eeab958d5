.PHONY: check test bench-e2e-smoke bench-service bench-anytime

# The tier-1 tests (once), the smoke-mode micro-benches (which write no
# tracked file), the trace smoke, four `repro.bench` paper-shape claim
# checks (table2, eq3, traversal, matchers), the end-to-end benchmark smoke
# and one profiled op; fails if the run changes what `git status
# --porcelain` reports.
check:
	scripts/check.sh

test:
	PYTHONPATH=src python -m pytest -x -q

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
