# Developer entry points. `make test` is the tier-1 gate used by CI and
# the PR driver; `make check` chains lint + the runtime deadlock tier +
# the tier-1 tests (the one command to run before pushing); `make check
# FAST=1` skips the repeat-averaged statistical benches (the fig10
# bit-stream sweep and the integration window sweep) for quick
# pre-commit runs; `make lint-static` runs the AST-based contract
# checker (repro.analysis: determinism, layering, fault-site catalog,
# env discipline, asyncio hygiene, registry contracts, exception
# taxonomy) over src/tests/benchmarks/examples and fails on any finding
# not grandfathered in lint-static.baseline.json;
# `make check-runtime` runs the parallel/daemon tests
# alone with a 2-worker pool cap (REPRO_MAX_POOL_WORKERS) and a hard
# timeout, so a pool/queue deadlock fails the build fast instead of
# hanging the whole suite (GNU `timeout` when available, otherwise an
# in-process watchdog via REPRO_TEST_TIMEOUT — see tests/conftest.py —
# so minimal CI containers still get the ceiling; the tier includes the
# network serving tests, which drive real sockets through the asyncio
# front-end); `make perfbench-smoke` runs the benchmark harness's smoke
# check (perfbench/run.py --smoke) — the wire benchmark itself is
# `perfbench/run.py --workload wire-trickle|wire-load`, which drives
# `repro serve` open loop and bit-checks every response;
# `make docs-sync`
# asserts docs/PROTOCOL.md + docs/ARCHITECTURE.md against the source
# constants and docs/ENVIRONMENT.md against ENV_CATALOG (the CI
# docs-sync job); `make check-chaos`
# runs the fault-injection tier the same way — deterministic worker
# kills, transport outages, blown deadlines, and poisoned payloads
# against real process pools (tests/test_runtime_faults.py +
# tests/test_runtime_chaos.py), where a recovery bug surfaces as a
# timeout or a bit-identity failure; `make coverage` runs
# the tier-1 tests under pytest-cov (skips gracefully when the plugin
# is absent — CI wires it in as a non-blocking report step); `make
# bench` times the simulation kernels — including the serial vs
# shard-parallel-scheduler vs adaptive-scheduler session rows and the
# daemon serving rows — appends the results to BENCH_kernels.json (the
# cross-PR perf trajectory), and refreshes the calibrated cost-model
# coefficients in benchmarks/results/; `make lint` is a fast
# syntax/bytecode sweep covering src (incl. the runtime/ package),
# tests, benchmarks, and examples (no third-party linter is baked into
# the image).

PYTHON ?= python
PYTHONPATH := src

# FAST=1: deselect the repeat-averaged statistical benches (minutes of
# training + repeated stochastic evaluation each) so check/test stay
# quick; the full tier-1 gate runs them.
FAST ?=
FAST_DESELECTS := \
	--deselect benchmarks/test_fig10_bitstream_sweep.py::test_fig10_bitstream_length_sweep \
	--deselect tests/test_integration.py::TestFullPipeline::test_window_sweep_shape
# PYTEST_EXTRA: extra pytest flags appended by callers (CI passes
# --junitxml=... here without the Makefile hard-coding report paths).
PYTEST_EXTRA ?=
PYTEST_FLAGS := $(if $(FAST),$(FAST_DESELECTS),) $(PYTEST_EXTRA)

# Hard ceiling for the runtime tier: pool/daemon deadlocks surface as a
# timeout failure instead of a hung CI job. GNU `timeout` enforces it
# from outside when present; otherwise tests/conftest.py arms an
# in-process watchdog from REPRO_TEST_TIMEOUT (same exit code, 124).
RUNTIME_TIMEOUT ?= 600
RUNTIME_TESTS := tests/test_api_parallel.py tests/test_runtime_plan.py \
	tests/test_runtime_daemon.py tests/test_runtime_adaptive.py \
	tests/test_net_serving.py tests/test_net_router.py

# The chaos tier: deterministic fault injection against real pools.
# Bounded the same way as the runtime tier — a recovery path that
# wedges (instead of retrying / falling back) fails as a timeout.
CHAOS_TIMEOUT ?= 600
CHAOS_TESTS := tests/test_runtime_faults.py tests/test_runtime_chaos.py
TIMEOUT_BIN := $(shell command -v timeout 2>/dev/null)

.PHONY: test bench bench-smoke perfbench-smoke lint lint-static check check-runtime check-chaos coverage docs-sync

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q $(PYTEST_FLAGS)

check-runtime:
ifneq ($(TIMEOUT_BIN),)
	REPRO_MAX_POOL_WORKERS=2 PYTHONPATH=$(PYTHONPATH) \
		timeout $(RUNTIME_TIMEOUT) $(PYTHON) -m pytest $(RUNTIME_TESTS) -q -rf $(PYTEST_EXTRA)
else
	@echo "GNU timeout not found; using in-process REPRO_TEST_TIMEOUT watchdog"
	REPRO_MAX_POOL_WORKERS=2 REPRO_TEST_TIMEOUT=$(RUNTIME_TIMEOUT) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest $(RUNTIME_TESTS) -q -rf $(PYTEST_EXTRA)
endif

check-chaos:
ifneq ($(TIMEOUT_BIN),)
	REPRO_MAX_POOL_WORKERS=2 PYTHONPATH=$(PYTHONPATH) \
		timeout $(CHAOS_TIMEOUT) $(PYTHON) -m pytest $(CHAOS_TESTS) -q -rf $(PYTEST_EXTRA)
else
	@echo "GNU timeout not found; using in-process REPRO_TEST_TIMEOUT watchdog"
	REPRO_MAX_POOL_WORKERS=2 REPRO_TEST_TIMEOUT=$(CHAOS_TIMEOUT) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest $(CHAOS_TESTS) -q -rf $(PYTEST_EXTRA)
endif

check: lint lint-static check-runtime check-chaos test

coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
			--cov=repro --cov-report=term --cov-report=xml:coverage.xml $(PYTEST_FLAGS); \
	else \
		echo "pytest-cov is not installed; skipping coverage (pip install pytest-cov)"; \
	fi

# BENCH_LABEL labels the run entry appended to BENCH_kernels.json (the
# conftest derives one from git HEAD when unset, so every appended run
# is attributable). Label a run '... [skip-bench-smoke]' to exempt it
# from the bench-smoke regression gate.
BENCH_LABEL ?=
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/test_kernel_performance.py -q --bench-json=BENCH_kernels.json $(if $(BENCH_LABEL),--bench-label='$(BENCH_LABEL)',)

# Standard-burst smoke gate: the warm-pool adaptive row must still be
# chosen by the cost model (no forcing), stay bit-identical to serial,
# and its pooled/serial ratio must not drift >20% from the committed
# BENCH_kernels.json trajectory. Machine-independent (ratio-based).
# Fails when no committed run carries both reference rows.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_smoke.py

# The benchmark harness's own smoke run (~20 s): its metric arithmetic
# plus short traced burst-serial and wire-trickle runs, bit-checked.
# The wire run goes through ServingDaemon.try_submit and reads the
# DaemonStats keys, so a daemon change that breaks the harness fails
# here instead of at the next benchmark run.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --smoke

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples

# Docs drift gate: the PROTOCOL.md / ARCHITECTURE.md tables are parsed
# and asserted against the source constants they document, and the
# generated docs/ENVIRONMENT.md must match ENV_CATALOG exactly.
docs-sync:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_docs_sync.py -q $(PYTEST_EXTRA)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli lint-static --check-env-docs

# The static contract checker. Exits non-zero on any finding not
# grandfathered in lint-static.baseline.json; LINT_JSON=path also dumps
# the machine-readable report (the CI artifact).
LINT_JSON ?=
lint-static:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli lint-static \
		$(if $(LINT_JSON),--json $(LINT_JSON),)
