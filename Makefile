GO ?= go

.PHONY: all build cross-be test race vet fmt loc linkcheck flagcheck bench bench-query bench-federation bench-wire bench-tiers bench-failover bench-models bench-smoke bench-e2e-smoke fuzz-smoke test-durable test-federation test-failover test-models ci

all: build

build:
	$(GO) build ./...

# cross-be builds everything for a big-endian host (s390x) and vets the
# batch codec's packages there: no test host runs the word-by-word path a
# big-endian host takes, so this keeps it compiling and vetted. Offline.
cross-be:
	CGO_ENABLED=0 GOARCH=s390x $(GO) build ./...
	CGO_ENABLED=0 GOARCH=s390x $(GO) vet ./internal/wire ./internal/durable

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

# bench-query regenerates BENCH_query.json: the fused query walk's ns/op
# at dim 2/8/32 and its p50 latency under concurrent ingest.
bench-query:
	$(GO) run ./cmd/benchingest -suite query

# bench-federation regenerates BENCH_federation.json: federated query
# p50/p99 against node count, under concurrent ingest.
bench-federation:
	$(GO) run ./cmd/benchingest -suite federation

# bench-wire regenerates BENCH_wire.json: binary-TCP ingest vs
# JSON-over-HTTP on identical loopback connections and batches, plus the
# JSON ingest body's decode and encode, the float writer against
# strconv and the one batch check.
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

# bench-smoke runs every query, federation (BenchmarkFedIngestFrame, the
# coordinator's wire ingest, included), wire, failover, models, journal,
# JSON ingest codec, float writer and batch check benchmark once so CI catches
# bit-rot in the harnesses without paying for full measurement runs.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkQuery' -benchtime 1x ./internal/query
	$(GO) test -run '^$$' -bench '^BenchmarkFed' -benchtime 1x ./internal/federation
	$(GO) test -run '^$$' -bench '^BenchmarkWire' -benchtime 1x ./internal/server ./internal/wire
	$(GO) test -run '^$$' -bench '^BenchmarkTiers' -benchtime 1x ./internal/server
	$(GO) test -run '^$$' -bench '^BenchmarkFailover' -benchtime 1x ./internal/federation
	$(GO) test -run '^$$' -bench '^BenchmarkModels' -benchtime 1x ./internal/models
	$(GO) test -run '^$$' -bench '^Benchmark(JournalAppend|DecodeJournal)$$' -benchtime 1x ./internal/durable
	$(GO) test -run '^$$' -bench '^BenchmarkIngestDecode$$' -benchtime 1x ./internal/wire
	$(GO) test -run '^$$' -bench '^BenchmarkAppendFloat$$' -benchtime 1x ./internal/wire
	$(GO) test -run '^$$' -bench '^BenchmarkCheck$$' -benchtime 1x ./internal/wire
	$(GO) test -run '^$$' -bench '^BenchmarkPushEncode$$' -benchtime 1x ./internal/client

# bench-e2e-smoke vets and tests the end-to-end benchmark, a separate Go
# module that root `go test ./...` skips, so a server API change that
# breaks the benchmark's build fails CI.
bench-e2e-smoke:
	cd cmd/benche2e && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke runs the wire-frame, journal, checkpoint, sampler snapshot,
# fleet file, JSON ingest and /accum body decoder fuzzers, the JSON number
# parser's and float writer's strconv-parity fuzzers and the wire and HTTP
# ingest admission fuzzers briefly: long enough to exercise the mutation
# engine over the checked-in corpora and seeds, short enough for CI. Each
# try at minimizing a new fleet input loads a whole fleet, so that
# fuzzer's minimization is capped at 200 tries.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzParseNumber -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzAppendFloat -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzDecodeJournal -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalSnapshot -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLoadFrom -fuzztime 10s -fuzzminimizetime 200x ./internal/multi
	$(GO) test -run '^$$' -fuzz FuzzDecodeIngest -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzDecodeIngest -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzIngestFrame -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzDecodeAccum -fuzztime 10s ./internal/query

# test-durable runs the durability suite under the race detector: the
# crash/fault-injection property tests, the server recovery tests (the
# golden data directory's included), the retention tests (the sweep
# shares the background loops with the journal sync and the
# checkpointer), and the SIGKILL crash-recovery smoke against the real
# binary.
test-durable:
	$(GO) test -race -count=1 ./internal/durable/
	$(GO) test -race -count=1 -run 'Durable|MaxBody|Golden|Retention' ./internal/server/
	$(GO) test -count=1 -run 'CrashRecoverySmoke' ./cmd/reservoird/

# test-federation runs the multi-node scatter-gather suite (in-process
# httptest data nodes behind a coordinator) under the race detector.
test-federation:
	$(GO) test -race -count=1 ./internal/federation/

# test-failover runs the fault-injection suite under the race detector:
# the internal/faulty proxy tests plus the federation failover sweep
# (kills across ingest/query/migration), the replica/migration tests and
# the replica pushes over wire-advertising nodes.
test-failover:
	$(GO) test -race -count=1 ./internal/faulty/
	$(GO) test -race -count=1 -run 'Failover|Replicated|Drain|WritesDuringOutage|Backfills|Readyz|WireReplica' ./internal/federation/

# test-models runs the sampler-family and model-management suites under
# the race detector: T-TBS/R-TBS property tests, the models and drift
# packages, and the server-side model routes (incl. the concurrency
# hammer and the MemFS fault sweep for the new samplers).
test-models:
	$(GO) test -race -count=1 ./internal/models/ ./internal/drift/
	$(GO) test -race -count=1 -run 'TTBS|RTBS|NewSampler|Model' ./internal/core/ ./internal/server/ ./internal/client/

ci: fmt build cross-be vet linkcheck flagcheck test race bench-smoke bench-e2e-smoke fuzz-smoke test-durable test-federation test-failover test-models
