GO ?= go
FUZZTIME ?= 30s

# Version stamp: release binaries report `git describe` through
# surw/internal/buildinfo (every command's -version flag and the
# dashboard's /buildinfo endpoint); builds outside a git checkout fall back
# to "dev".
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X surw/internal/buildinfo.Version=$(VERSION)"

.PHONY: all build vet fmt test race bench fuzz-smoke crosscheck ci

all: ci

build:
	$(GO) build $(LDFLAGS) ./...

vet:
	$(GO) vet ./...

# Formatting gate: every Go file tracked by git must be gofmt-clean.
# ci.sh runs this target; the check lives only here.
fmt:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector pass over the packages that spawn goroutines: the worker
# pool, the cooperative scheduler (whose race build also samples the
# goroutine-binding cross-check), the parallel session runner, the parallel
# experiment grids, the crosscheck oracles, the campaign store, the fleet,
# the shared object-name tables, and the surwsync frontend. ci.sh runs
# this target; the list lives only here.
race:
	$(GO) test -race -short ./internal/workpool ./internal/sched ./internal/runner ./internal/experiments ./internal/crosscheck ./internal/campaign ./internal/remote ./internal/objname ./surwsync

# Benchmarks. Every result (the throughput-critical pooled scheduling,
# parallel sessions, and surwsync worker pool among them) is parsed into
# the machine-stamped BENCH_obs.json so regressions can be
# gated on and reports can embed machine-readable numbers; every run also
# appends a timestamped record to the BENCH_history.jsonl trajectory
# (BENCH_obs.json stays the latest snapshot). `surwobs -bench-compare
# old.json new.json` gates schedules/s between any two snapshots.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . | tee BENCH_obs.txt
	$(GO) run -buildvcs=true ./cmd/surwobs -bench2json -in BENCH_obs.txt -out BENCH_obs.json \
		-bench-history BENCH_history.jsonl \
		-gate 'BenchmarkPooledSchedule/pooled.allocs/op<=11'

# Short coverage-guided fuzz runs of the native fuzz targets: the
# end-to-end differential oracle over generated programs, the commutation
# metamorphic property of the class fingerprint, and the channel
# implementation under randomized scheduling. FUZZTIME=5m for a soak.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzGeneratedProgram -fuzztime=$(FUZZTIME) ./internal/crosscheck
	$(GO) test -run='^$$' -fuzz=FuzzClassFingerprint -fuzztime=$(FUZZTIME) ./internal/crosscheck
	$(GO) test -run='^$$' -fuzz=FuzzChannelOps -fuzztime=$(FUZZTIME) ./internal/sched

# Framework self-verification soak (surwrun -crosscheck).
crosscheck:
	$(GO) run ./cmd/surwrun -crosscheck

ci: fmt vet build test race
