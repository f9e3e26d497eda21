# Convenience targets for the repro repository.

.PHONY: install test lint lint-program typecheck coverage bench bench-tables \
	service-bench tpch-smoke perfbench-smoke chaos fleet-chaos examples \
	all clean

install:
	pip install -e .

test:
	pytest tests/

# Project-invariant lint (per-file rules RL001-RL009, docs/lint_rules.md)
# plus ruff style checks when ruff is installed (CI always installs it).
lint:
	PYTHONPATH=src python -m repro.devtools.lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping style checks (CI runs them)"; \
	fi

# Whole-program lint: the RL100-RL103 graph rules (ARCHITECTURE DAG,
# async-safety, exception-flow, determinism-flow) over the import and
# call graphs of src/.  Budgeted at 10s of wall clock — the same bound
# tests/devtools/test_repo_clean.py asserts — so the pass stays cheap
# enough to run on every push.
lint-program:
	PYTHONPATH=src timeout 10 python -m repro.devtools.lint --program

# mypy --strict over the core data model; skipped gracefully when mypy
# is not installed locally (CI always installs it).
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --strict src/repro/core/; \
	else \
		echo "mypy not installed; skipping typecheck (CI runs it)"; \
	fi

# Line+branch coverage of the checking engine, the daemon, and the
# compute layer, gated at the fail_under threshold in pyproject.toml
# ([tool.coverage.report]).  Skipped gracefully when pytest-cov is not
# installed (CI installs it and enforces the gate on every push).
coverage:
	@if PYTHONPATH=src python -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src python -m pytest tests/ -q \
			--cov=repro.core --cov=repro.server --cov=repro.compute \
			--cov-report=term-missing; \
	else \
		echo "pytest-cov not installed; skipping coverage (CI runs it)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

# The experiment report tables of EXPERIMENTS.md (fast: timing disabled).
bench-tables:
	pytest benchmarks/ -q -s --benchmark-disable

# Service-layer throughput: workers x cache temperature (jobs/sec table).
service-bench:
	pytest benchmarks/bench_service_throughput.py -q -s --benchmark-disable

# Resilience drills: the deterministic fault-injection suite (verdict
# identity under injected crashes/transients/slowdowns across serial,
# thread, and process executors) plus the kill-and-resume journal tests.
chaos:
	PYTHONPATH=src python -m pytest \
		tests/service/test_chaos.py \
		tests/service/test_resilience.py \
		tests/service/test_journal.py \
		tests/service/test_serve_batch_resume.py -q

# Fleet resilience drills: SIGKILL a worker mid-load with zero verdict
# divergence vs a single-daemon reference, wedged-heartbeat escalation,
# crash-loop circuit breaking, torn-store healing, warm results across
# full fleet restarts, SIGTERM-drain-to-exit-0, and the client's
# bounded reconnect-and-retry.
fleet-chaos:
	PYTHONPATH=src python -m pytest \
		tests/server/test_fleet.py \
		tests/server/test_fleet_chaos.py \
		tests/server/test_fleet_e2e.py \
		tests/server/test_client_retry.py -q

# Workload smoke: the full CLI pipeline at a tiny scale factor
# (generate -> inject at two rates -> check -> repair, every verdict
# cross-checked against the injection manifest), one end-to-end run at
# sf 1.0 (1.29 M facts streamed into an on-disk store; `workload e2e`
# exits 1 unless the kernel's conflict pairs equal the injection
# manifest and the all-trusted repair is certified optimal), plus the
# streaming loader-equivalence suites.  Bounded by timeout so a wedged
# loader cannot hang CI.
tpch-smoke:
	rm -rf /tmp/repro-tpch-smoke && mkdir -p /tmp/repro-tpch-smoke
	PYTHONPATH=src timeout 120 python -m repro.cli workload generate \
		--sf 0.01 --seed 5 --out /tmp/repro-tpch-smoke/clean > /dev/null
	PYTHONPATH=src timeout 120 python -m repro.cli workload check \
		/tmp/repro-tpch-smoke/clean > /dev/null
	PYTHONPATH=src timeout 120 python -m repro.cli workload inject \
		--sf 0.01 --seed 5 --rate 0.005 \
		--out /tmp/repro-tpch-smoke/low > /dev/null
	PYTHONPATH=src timeout 120 python -m repro.cli workload inject \
		--sf 0.01 --seed 5 --rate 0.05 \
		--out /tmp/repro-tpch-smoke/high > /dev/null
	PYTHONPATH=src timeout 120 python -m repro.cli workload check \
		/tmp/repro-tpch-smoke/low > /dev/null
	PYTHONPATH=src timeout 120 python -m repro.cli workload check \
		/tmp/repro-tpch-smoke/high > /dev/null
	PYTHONPATH=src timeout 120 python -m repro.cli workload repair \
		/tmp/repro-tpch-smoke/high > /dev/null
	PYTHONPATH=src timeout 180 python -m repro.cli workload e2e \
		--sf 0.01 --seed 5 --rate 0.02 > /dev/null
	PYTHONPATH=src timeout 300 python -m repro.cli workload e2e \
		--sf 1.0 --seed 7 --rate 0.01 \
		--store /tmp/repro-tpch-smoke/sf1.db > /dev/null
	PYTHONPATH=src timeout 300 python -m pytest \
		tests/engine/test_streaming.py \
		tests/workloads/test_tpch.py \
		tests/workloads/test_injection.py \
		tests/properties/test_streaming_equivalence.py -q
	@echo "tpch smoke clean"

# The repository benchmark (perfbench/, BENCHMARK.json) as a smoke:
# a short untraced and a short traced run of each of its three
# workloads (the two TPC-H pipelines and the serve_mixed daemon ladder,
# whose every answer is checked against a serial in-process reference),
# so every run kind the benchmark makes is smoked; the traced tpch_load
# run also imports the loader's encoders.  It fails only on a non-zero
# exit, i.e. when a correctness gate of the benchmark breaks (manifest
# conformance, certified repairs, reference answers) or an import does;
# there are no timing thresholds, since shared runners cannot hold any.
perfbench-smoke:
	timeout 300 python3 perfbench/run.py --workload tpch_repair --seconds 5 --trace 0
	timeout 300 python3 perfbench/run.py --workload tpch_repair --seconds 5 --trace 1
	timeout 300 python3 perfbench/run.py --workload tpch_load --seconds 5 --trace 0
	timeout 300 python3 perfbench/run.py --workload tpch_load --seconds 5 --trace 1
	timeout 300 python3 perfbench/run.py --workload serve_mixed --seconds 5 --trace 0
	timeout 300 python3 perfbench/run.py --workload serve_mixed --seconds 5 --trace 1

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		PYTHONPATH=src python $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran cleanly"

all: lint lint-program test bench-tables examples

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
