GO ?= go

.PHONY: all build test race vet fmt loc linkcheck flagcheck bench bench-query bench-federation bench-wire bench-tiers bench-failover bench-models bench-smoke bench-e2e-smoke fuzz-smoke test-durable test-federation test-failover test-models ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs gofmt, and prints the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# loc prints the net non-test Go line count the ROADMAP tracks: every
# *.go file except tests and the separate cmd/benche2e module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/benche2e/*' ! -path './.*' -print0 | \
		xargs -0 cat | wc -l

# linkcheck validates relative Markdown links (stdlib-only, no network).
linkcheck:
	$(GO) run ./cmd/linkcheck

# flagcheck cross-references every cmd/reservoird flag against the flag
# table in docs/OPERATIONS.md — docs-freshness as a CI gate.
flagcheck:
	$(GO) run ./cmd/flagcheck

# bench regenerates BENCH_ingest.json with the ingest throughput harness.
bench:
	$(GO) run ./cmd/benchingest

# bench-query regenerates BENCH_query.json: fused vs legacy query kernels
# and query p50 latency under concurrent ingest.
bench-query:
	$(GO) run ./cmd/benchingest -suite query

# bench-federation regenerates BENCH_federation.json: federated query
# p50/p99 against node count, under concurrent ingest.
bench-federation:
	$(GO) run ./cmd/benchingest -suite federation

# bench-wire regenerates BENCH_wire.json: binary-TCP ingest vs
# JSON-over-HTTP on identical loopback connections and batches.
bench-wire:
	$(GO) run ./cmd/benchingest -suite wire

# bench-tiers regenerates BENCH_tiers.json: GET /range p50/p99 against
# multi-horizon ladder depth (1, 2 and 4 tiers).
bench-tiers:
	$(GO) run ./cmd/benchingest -suite tiers

# bench-failover regenerates BENCH_failover.json: mean time from
# blackholing a replica to the coordinator serving a whole answer again.
bench-failover:
	$(GO) run ./cmd/benchingest -suite failover

# bench-models regenerates BENCH_models.json: training-set age, staleness
# and prequential accuracy of drift-retrained models over the Aggarwal,
# T-TBS and R-TBS samplers on a regime-shifting stream.
bench-models:
	$(GO) run ./cmd/benchingest -suite models

# bench-smoke runs every query, federation, wire and failover benchmark
# once so CI catches bit-rot in the harnesses without paying for full
# measurement runs.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkQuery' -benchtime 1x ./internal/query
	$(GO) test -run '^$$' -bench '^BenchmarkFed' -benchtime 1x ./internal/federation
	$(GO) test -run '^$$' -bench '^BenchmarkWire' -benchtime 1x ./internal/server ./internal/wire
	$(GO) test -run '^$$' -bench '^BenchmarkTiers' -benchtime 1x ./internal/server
	$(GO) test -run '^$$' -bench '^BenchmarkFailover' -benchtime 1x ./internal/federation
	$(GO) test -run '^$$' -bench '^BenchmarkModels' -benchtime 1x ./internal/models

# bench-e2e-smoke vets and tests the end-to-end benchmark, a separate Go
# module that root `go test ./...` skips, so a server API change that
# breaks the benchmark's build fails CI.
bench-e2e-smoke:
	cd cmd/benche2e && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke runs the wire-frame decoder fuzzer briefly: long enough to
# exercise the mutation engine over the checked-in corpus, short enough
# for CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire

# test-durable runs the durability suite under the race detector: the
# crash/fault-injection property tests, the server recovery tests, and the
# SIGKILL crash-recovery smoke against the real binary.
test-durable:
	$(GO) test -race -count=1 ./internal/durable/
	$(GO) test -race -count=1 -run 'Durable|MaxBody' ./internal/server/
	$(GO) test -count=1 -run 'CrashRecoverySmoke' ./cmd/reservoird/

# test-federation runs the multi-node scatter-gather suite (in-process
# httptest data nodes behind a coordinator) under the race detector.
test-federation:
	$(GO) test -race -count=1 ./internal/federation/

# test-failover runs the fault-injection suite under the race detector:
# the internal/faulty proxy tests plus the federation failover sweep
# (kills across ingest/query/migration) and the replica/migration tests.
test-failover:
	$(GO) test -race -count=1 ./internal/faulty/
	$(GO) test -race -count=1 -run 'Failover|Replicated|Drain|WritesDuringOutage|Backfills|Readyz' ./internal/federation/

# test-models runs the sampler-family and model-management suites under
# the race detector: T-TBS/R-TBS property tests, the models and drift
# packages, and the server-side model routes (incl. the concurrency
# hammer and the MemFS fault sweep for the new samplers).
test-models:
	$(GO) test -race -count=1 ./internal/models/ ./internal/drift/
	$(GO) test -race -count=1 -run 'TTBS|RTBS|NewSampler|Model' ./internal/core/ ./internal/server/ ./internal/client/

ci: fmt build vet linkcheck flagcheck test race bench-smoke bench-e2e-smoke fuzz-smoke test-durable test-federation test-failover test-models
