# Convenience entry points; everything runs on the stock python
# toolchain (PYTHONPATH=src), no build step required.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test perfbench-tests conformance fuzz fuzz-smoke fuzz-cache \
	fuzz-exec fuzz-service cache-bench exec-bench fault-sweep \
	service-chaos storage-chaos net-chaos service-bench check-all

# Tier-1: the unit/integration/property pytest suite.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The repo benchmark's helper tests and tiny smoke runs (not tier-1;
# the benchmark itself is python3 perfbench/run.py).
perfbench-tests:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q perfbench/tests

# lit/FileCheck conformance suite (tests/conformance/**).
conformance:
	$(PYTHON) tools/lit_runner.py tests/conformance

# Metamorphic differential fuzzer, fixed seeds for reproducibility.
# Override: make fuzz FUZZ_COUNT=500 FUZZ_SEED=100
FUZZ_COUNT ?= 200
FUZZ_SEED ?= 1
fuzz:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.testing.fuzz \
	    --count $(FUZZ_COUNT) --seed $(FUZZ_SEED) \
	    --reproducer-dir fuzz-reproducers

fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.testing.fuzz \
	    --count 50 --seed 1 --reproducer-dir fuzz-reproducers

# Cache-oracle fuzzing: cached compiles (cold/warm/stage-resumed) must
# be byte-identical to the uncached pipeline on every seed.
fuzz-cache:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.testing.fuzz --cache \
	    --count $(FUZZ_COUNT) --seed $(FUZZ_SEED) \
	    --reproducer-dir fuzz-reproducers

# Engine-differential fuzzing: every seed races -fexec=closures
# against the reference interpreter (the sixth oracle); any divergence
# in stdout, exit code or execution profile is a finding.
fuzz-exec:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.testing.fuzz --exec \
	    --count $(FUZZ_COUNT) --seed $(FUZZ_SEED) \
	    --reproducer-dir fuzz-reproducers

# Service-oracle fuzzing: every seed also runs through the compile
# service's worker pool (request -> CompilerInvocation -> worker), which
# must be semantics-neutral against the in-process pipeline.
fuzz-service:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.testing.fuzz --service \
	    --count $(FUZZ_COUNT) --seed $(FUZZ_SEED) \
	    --reproducer-dir fuzz-reproducers

# Cold-vs-warm latency benchmark -> BENCH_cache.json.
cache-bench:
	$(PYTHON) tools/cache_bench.py --min-speedup 10

# Interpreter-vs-closures engine benchmark -> BENCH_exec.json.
exec-bench:
	$(PYTHON) tools/exec_bench.py --min-speedup 5

# Fault-injection sweep: every registered ICE site must be contained.
fault-sweep:
	$(PYTHON) tools/fault_sweep.py

# Compile-service chaos batch: worker kills, hangs and poison inputs;
# the harness asserts zero lost requests, the fault counters, and the
# one accounting check (repro.service.accounting_violations).
# Override: make service-chaos CHAOS_COUNT=200
CHAOS_COUNT ?= 50
service-chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.service.chaos \
	    --count $(CHAOS_COUNT) --kill-every 10 --hang-every 25 \
	    --poison 2 --workers 2 --deadline 5 \
	    --quarantine-dir service-quarantine

# Storage chaos: concurrent compiles against a fault-armed shared disk
# cache with a mid-campaign service restart; asserts zero corrupt
# payloads served, durable quarantine, and the one accounting check
# over the registry both service instances share.
# Work dirs live under /tmp so nothing lands at the repo root.
STORAGE_CHAOS_DIR ?= /tmp/miniclang-storage-chaos
storage-chaos:
	rm -rf $(STORAGE_CHAOS_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.service.chaos \
	    --storage --count $(CHAOS_COUNT) --poison 2 --workers 2 \
	    --deadline 5 --durable \
	    --cache-dir $(STORAGE_CHAOS_DIR)/cache \
	    --state-dir $(STORAGE_CHAOS_DIR)/state \
	    --quarantine-dir $(STORAGE_CHAOS_DIR)/quarantine

# Network chaos: the sharded TCP front door under hostile clients —
# disconnects mid-request, garbage bytes, truncated/half-written and
# oversized frames, slow loris, shard-worker kills — plus a real
# miniclang-serve subprocess draining cleanly on SIGTERM.  Asserts
# zero lost and zero double-answered requests and the one accounting
# check over the merged shard ledgers and the wire ledger.
net-chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.service.chaos \
	    --net --count $(CHAOS_COUNT) --shards 2 --clients 4 \
	    --workers 2 --deadline 5 --kill-every 10

# Service load-test harness: replays workload mixes (steady, cached,
# faulted, overload) and records what the telemetry stack reports ->
# BENCH_service.json; --transport both also measures the steady and
# cached mixes through the in-process shard router vs over TCP and
# gates the TCP steady p50 at 2x in-process.  Every mix must pass the
# one accounting check (repro.service.accounting_violations).
# Override: make service-bench BENCH_ARGS=--smoke
BENCH_ARGS ?=
service-bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/service_bench.py \
	    $(BENCH_ARGS)

# Everything CI runs, in one shot.
check-all: test perfbench-tests conformance fuzz-smoke fuzz-exec fuzz-service fault-sweep \
	service-chaos storage-chaos net-chaos cache-bench exec-bench \
	service-bench
