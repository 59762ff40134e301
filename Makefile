GO ?= go

.PHONY: build test verify verify-quick bench bench-all pause-json bench-fleet \
	bench-scan bench-cow bench-remus bench-cluster bench-web fmt-check \
	static-check ci bench-drift scenarios

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# Full verification: static analysis plus the race detector over the
# whole tree (the parallel pause path runs real worker pools).
verify: build
	$(GO) vet ./...
	$(GO) test -race ./...

# Short race pass over just the packages with real concurrency: the
# sharded checkpoint copy, the concurrent detector scan, the controller
# that drives both, the fleet scheduler running many controllers on one
# shared hypervisor, and the observability layer they all emit into.
# The final steps drive traced fleet runs end-to-end under the race
# detector: many VMs emitting into one shared tracer and registry, once
# eagerly and once with the CoW commit's background copier and write
# faults live. Each mode's run greps for its trace object and metric
# series, so a mode whose counters stop reaching the trace or the
# metrics dump fails here.
verify-quick:
	$(GO) test -race ./internal/checkpoint ./internal/detect ./internal/core ./internal/hv ./internal/fleet ./internal/cluster ./internal/obs
	$(GO) run -race ./cmd/crimes -vms 3 -stagger -epochs 2 \
		-trace /tmp/crimes-verify-trace.jsonl -metrics /tmp/crimes-verify-metrics.txt >/dev/null
	$(GO) run -race ./cmd/crimes -vms 3 -stagger -epochs 2 -cow \
		-trace /tmp/crimes-verify-trace-cow.jsonl -metrics /tmp/crimes-verify-metrics-cow.txt >/dev/null
	grep -q '"cow"' /tmp/crimes-verify-trace-cow.jsonl
	grep -q crimes_cow_total /tmp/crimes-verify-metrics-cow.txt
	$(GO) run -race ./cmd/crimes -vms 3 -stagger -epochs 2 -remus delta+dedup -opt noopt \
		-trace /tmp/crimes-verify-trace-delta.jsonl -metrics /tmp/crimes-verify-metrics-delta.txt >/dev/null
	grep -q '"repl"' /tmp/crimes-verify-trace-delta.jsonl
	$(GO) run -race ./cmd/crimes -vms 3 -stagger -epochs 2 -scan-cache on \
		-trace /tmp/crimes-verify-trace-scan.jsonl -metrics /tmp/crimes-verify-metrics-scan.txt >/dev/null
	grep -q '"scan_cache"' /tmp/crimes-verify-trace-scan.jsonl
	grep -q crimes_scan_cache_total /tmp/crimes-verify-metrics-scan.txt
	$(GO) run -race ./cmd/crimes -hosts 3 -vms 6 -epochs 4 -host-kill host1:3 \
		-trace /tmp/crimes-verify-trace-cluster.jsonl -metrics /tmp/crimes-verify-metrics-cluster.txt >/dev/null
	$(GO) run -race ./cmd/crimes -vms 8 -stagger -epochs 4 -slo 2500us \
		-trace /tmp/crimes-verify-trace-slo.jsonl -metrics /tmp/crimes-verify-metrics-slo.txt >/dev/null

# gofmt gate: fail listing any file that is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck gate: runs when the binary is installed (CI installs it);
# skipped silently elsewhere so `make ci` needs nothing beyond the Go
# toolchain.
static-check:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi

# Scenario outcome gate: the full adversarial matrix (attack family x
# workload x fault schedule x config arm) with recorded expected
# outcomes. Any drift — a detection lost, an expected evasion suddenly
# detected, a clean arm raising findings — fails the run.
scenarios: build
	$(GO) run ./cmd/crimes -scenario all

# Regenerate every BENCH_*.json artifact in one pass; the single source
# of truth for what "all benchmarks" means.
bench-all: pause-json bench-fleet bench-scan bench-cow bench-remus bench-cluster bench-web

# Benchmark drift gate: the BENCH_*.json artifacts are priced by the
# deterministic cost model, so regenerating them must be a no-op. Any
# diff means a change altered the priced pause path (or the artifacts
# were not regenerated) and must be committed deliberately.
bench-drift: bench-all
	git diff --exit-code BENCH_*.json

# Everything the CI workflow runs, in the same order, for local use.
ci: fmt-check static-check build
	$(GO) vet ./...
	$(GO) test -shuffle=on ./...
	$(GO) test -race ./...
	$(MAKE) scenarios
	$(MAKE) bench-drift

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Regenerate the machine-readable parallel pause-path benchmark.
pause-json:
	$(GO) run ./cmd/crimes-bench -pause-json BENCH_pause.json

# Regenerate the machine-readable fleet-scheduling benchmark. The sweep
# is priced by the deterministic cost model (fixed workload counts, no
# wall-clock inputs), so the output is byte-stable across runs.
bench-fleet:
	$(GO) run ./cmd/crimes-bench -fleet-json BENCH_fleet.json

# Regenerate the machine-readable scan-path cache benchmark. This one
# runs the real controller (two arms: per-epoch mappings vs persistent
# cache) with Workers=1 and a fixed seed, so it too is byte-stable.
bench-scan:
	$(GO) run ./cmd/crimes-bench -scan-json BENCH_scan.json

# Regenerate the machine-readable CoW commit benchmark: the real
# controller sweeps working-set sizes under the eager and copy-on-write
# commits with Workers=1 and a fixed seed, so it too is byte-stable.
bench-cow:
	$(GO) run ./cmd/crimes-bench -cow-json BENCH_cow.json

# Regenerate the machine-readable delta-replication benchmark: the real
# controller sweeps dirty-set sizes and rewrite locality under the raw,
# delta, and delta+dedup wire protocols with Workers=1 and a fixed
# seed, so it too is byte-stable.
bench-remus:
	$(GO) run ./cmd/crimes-bench -remus-json BENCH_remus.json

# Regenerate the machine-readable web-scale load benchmark: every
# protection arm's epoch timeline is captured from the real controller
# with Workers=1 base configs and fixed seeds, then replayed into the
# deterministic cohort load generator in virtual time, so the output is
# byte-stable.
bench-web:
	$(GO) run ./cmd/crimes-bench -web-json BENCH_web.json

# Regenerate the machine-readable multi-host cluster benchmark: the
# scale and ring sections are priced by the deterministic cost model
# and hash ring, and the failover section drives the real control
# plane (kill vs no-kill arms) with Workers=1 and a fixed seed, so the
# output is byte-stable.
bench-cluster:
	$(GO) run ./cmd/crimes-bench -cluster-json BENCH_cluster.json
