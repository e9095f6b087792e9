# Development targets. `make check` is what every PR should pass; the bench
# targets make allocation or throughput regressions in the event engine
# visible in review.

GO ?= go

.PHONY: all build fmt test vet lint race perfbench-test bench bench-engine bench-mem bench-smoke bench-e2e check results obs-smoke golden-slow test-debug

all: check

build:
	$(GO) build ./...

# Fails, listing the files, when any file is not gofmt-formatted.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l . ; exit 1 ; }

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
	$(GO) test . -run=XXX -bench='CacheHierarchy|HierarchyScatter|LLCInsert|DRAMRead' -benchmem $(BENCHFLAGS)
	$(GO) test ./internal/cache/ -run=XXX -bench='SetIndex|LLCLookup|SetAssocReset' -benchmem $(BENCHFLAGS)
	$(GO) test ./internal/mem/ -run=XXX -bench='MapAddr' -benchmem $(BENCHFLAGS)
	$(GO) test ./internal/fastdiv/ -run=XXX -bench=. -benchmem $(BENCHFLAGS)

# One iteration of every benchmark in the module (engine, memory path,
# ablations, end to end), so a benchmark that a change breaks or makes panic
# fails the check.
bench-smoke:
	$(GO) test ./... -run=XXX -bench=. -benchtime=1x

# End-to-end single-run benchmark (whole machine, short windows).
bench-e2e:
	$(GO) test . -run=XXX -bench='BenchmarkRunOnce$$|BenchmarkRunOncePooled|BenchmarkSimulatedCyclesPerSecond' -benchtime=3x -benchmem

bench: bench-engine bench-mem bench-e2e

check: build fmt vet lint test race perfbench-test bench-engine bench-smoke obs-smoke

# Observability smoke: drive the CLI with every exporter enabled against the
# kvs scenario, then validate the artifacts (CSV/JSON structure) in-process.
obs-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/sweepersim -scenario internal/scenario/specs/kvs.json \
		-warmup 200000 -measure 400000 \
		-metrics artifacts/metrics.csv -trace artifacts/trace.json \
		-manifest artifacts/manifest.json
	SWEEPER_OBS_DIR=$(CURDIR)/artifacts $(GO) test ./internal/obs -run TestObsSmoke -count=1 -v

# Slow golden gate: byte-compares regenerated fig1a-c, fig5a-c and fig8a-b
# CSVs against results/. 120 peak searches, 90 of them distinct (the run
# memo replays the rest; ~11 min at two workers), so it is opt-in via the
# env guard rather than part of the default `go test ./...` budget.
golden-slow:
	SWEEPER_GOLDEN_SLOW=1 $(GO) test ./internal/experiments \
		-run TestGoldenSlowCSVs -count=1 -timeout 40m -v

# Debug build with the invariant probes compiled in (ring slot conservation,
# DRAM timing monotonicity, cache inclusion, DDIO way-mask bounds). It also
# replays the FuzzScenario corpus, so every committed spec input runs with
# the probes on.
test-debug:
	$(GO) build -tags sweeperdebug ./...
	$(GO) test -tags sweeperdebug ./internal/machine/ ./internal/obs/ ./internal/scenario/ -run 'TestProbe|TestObs|FuzzScenario'

# Regenerate the committed experiment artifacts (takes a while), the text
# log included; the log is replaced only when the harness succeeds.
results:
	$(GO) run ./cmd/experiments -fig all -quick -out results/ > results/experiments_log.txt.tmp
	mv results/experiments_log.txt.tmp results/experiments_log.txt
