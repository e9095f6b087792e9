# Development targets. `make check` is what every PR should pass; the bench
# targets make allocation or throughput regressions in the event engine
# visible in review.

GO ?= go

.PHONY: all build test vet lint race perfbench-test bench bench-engine bench-mem bench-e2e check results obs-smoke traffic-smoke tiers-smoke golden-slow test-debug

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips with a notice when staticcheck is not on
# PATH (offline sandboxes); CI installs it and fails on findings.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed, skipping" ; \
		echo "      (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

# The race detector is ~10x; the experiments package alone needs more than
# the default 10m test timeout on small machines.
race:
	$(GO) test -race -timeout 45m ./...

# The benchmark is a Go module of its own (perfbench/go.mod), so `go test
# ./...` never builds it; vet and test it here, since it compiles against
# the simulator's internal APIs.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Engine microbenchmarks: allocs/op must stay at 0 for the steady state.
bench-engine:
	$(GO) test ./internal/sim/ -run=XXX -bench=Engine -benchmem

# Memory-access fast path: cache indexing/lookup/insert, DRAM address
# mapping and the strength-reduced division primitive they share.
bench-mem:
	$(GO) test . -run=XXX -bench='CacheHierarchy|LLCInsert|DRAMRead' -benchmem
	$(GO) test ./internal/cache/ -run=XXX -bench='SetIndex|LLCLookup|SetAssocReset' -benchmem
	$(GO) test ./internal/mem/ -run=XXX -bench='MapAddr' -benchmem
	$(GO) test ./internal/fastdiv/ -run=XXX -bench=. -benchmem

# End-to-end single-run benchmark (whole machine, short windows).
bench-e2e:
	$(GO) test . -run=XXX -bench='BenchmarkRunOnce$$|BenchmarkRunOncePooled|BenchmarkSimulatedCyclesPerSecond' -benchtime=3x -benchmem

bench: bench-engine bench-mem bench-e2e

check: build vet lint test race perfbench-test bench-engine traffic-smoke tiers-smoke

# Observability smoke: drive the CLI with every exporter enabled against the
# kvs scenario, then validate the artifacts (CSV/JSON structure) in-process.
obs-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/sweepersim -scenario examples/scenarios/kvs.json \
		-warmup 200000 -measure 400000 \
		-metrics artifacts/metrics.csv -trace artifacts/trace.json \
		-manifest artifacts/manifest.json
	SWEEPER_OBS_DIR=$(CURDIR)/artifacts $(GO) test ./internal/obs -run TestObsSmoke -count=1 -v

# Traffic smoke: drive bursty MMPP arrivals through the CLI and validate the
# manifest in-process, then drive the shipped bursty-MMPP scenario
# end-to-end.
traffic-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/sweepersim -arrival mmpp -arrival-burst-ratio 4 \
		-warmup 300000 -measure 200000 \
		-manifest artifacts/traffic_manifest.json
	SWEEPER_TRAFFIC_MANIFEST=$(CURDIR)/artifacts/traffic_manifest.json \
		$(GO) test ./internal/machine -run TestTrafficManifestSmoke -count=1 -v
	$(GO) run ./cmd/sweepersim -scenario examples/scenarios/mmpp.json \
		-warmup 300000 -measure 200000

# Hybrid-tier smoke: drive the CLI's tier and invalidation-instruction flags
# (hot-page placement, SIMF bulk invalidation) with the manifest exporter on,
# validate the manifest (tier config, counters, mem.tier1.* metrics)
# in-process, then run the shipped tiers scenario end-to-end.
tiers-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/sweepersim -sweeper -invalidate-insn simf \
		-mem-tier hotpage -mem-tier-split 16777216 \
		-warmup 300000 -measure 200000 \
		-manifest artifacts/tiers_manifest.json
	SWEEPER_TIERS_MANIFEST=$(CURDIR)/artifacts/tiers_manifest.json \
		$(GO) test ./internal/machine -run TestTiersManifestSmoke -count=1 -v
	$(GO) run ./cmd/sweepersim -scenario examples/scenarios/tiers.json \
		-warmup 300000 -measure 200000

# Slow golden gate: byte-compares regenerated fig1a-c and fig8a-b CSVs
# against results/. 78 peak searches (~12 min single-core), so it is opt-in
# via the env guard rather than part of the default `go test ./...` budget.
golden-slow:
	SWEEPER_GOLDEN_SLOW=1 $(GO) test ./internal/experiments \
		-run TestGoldenSlowCSVs -count=1 -timeout 40m -v

# Debug build with the invariant probes compiled in (ring slot conservation,
# DRAM timing monotonicity, cache inclusion, DDIO way-mask bounds).
test-debug:
	$(GO) build -tags sweeperdebug ./...
	$(GO) test -tags sweeperdebug ./internal/machine/ ./internal/obs/ -run 'TestProbe|TestObs'

# Regenerate the committed experiment artifacts (takes a while).
results:
	$(GO) run ./cmd/experiments -fig all -quick -out results/
