# Verify flow for deptree. `make verify` is the tier-1 gate plus the race
# pass over the parallel discovery engine and every discovery package.

GO ?= go

.PHONY: build test fmt-check race chaos recover torture fuzz bench benchdiff bench-large bench-stream serve-smoke servebench-check verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails, listing the offenders, when any Go file differs from gofmt's
# formatting.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Race coverage for the worker pool, the shared partition cache, all
# parallelized discovery algorithms (the differential harness runs both
# sequential and parallel paths under the detector), the HTTP serving
# layer (admission semaphore, breakers, drain) and the async job service
# (runner pool, WAL, retry/backoff paths).
race:
	$(GO) test -race ./internal/engine/... ./internal/discovery/... ./internal/server/ ./internal/jobs/ ./internal/stream/ ./internal/wal/ ./internal/fsx/

# Fault-injection suite (DESIGN.md "Failure model"): injected panics,
# stalls and mid-run cancellations across the pool and every discoverer,
# under the race detector.
chaos:
	$(GO) test -race -count=1 ./internal/engine/chaos/

# Kill-and-restart recovery suite for the durable job service (DESIGN.md
# "Job lifecycle, WAL format & crash recovery"): a real server process
# SIGKILLed mid-job must replay its WAL backlog to byte-identical
# results on restart, torn WAL tails must truncate to the valid prefix,
# and injected store faults must retry transiently — all under -race.
recover:
	$(GO) test -race -count=1 -run 'Recover' ./internal/engine/chaos/

# Disk-fault torture suite (DESIGN.md "Durability"): the shared framed
# WAL and both typed codecs under randomized seeded fault schedules —
# write errors, short writes, sync failures, power cuts with partial
# page writeback, at-rest bit flips — across 128 seeds per layer, under
# -race, goroutine-leak checked. The invariant: every acknowledged
# record replays byte-identical after any crash or is reported as typed
# corruption; it is never silently dropped.
torture:
	DEPTREE_TORTURE=1 $(GO) test -race -count=1 -run 'Torture' ./internal/engine/chaos/

# Short fuzz passes: the CSV codec round trip, the typed dictionary
# encoding (Codes/GroupCodes/Dict/SameKey) vs a Value.Key string
# reference, the CSR partition product vs the retained map-based oracle,
# the append refiner vs a from-scratch Build after every batch, the server's
# request decoder across every registered discover route (malformed
# bodies must always be structured 4xx, never a panic), the CFD
# pattern-tableau parser, the set-based OD core against the retained
# pairwise oracle, FastFD's single-visit agree-set sweep against the
# map-deduplicated oracle, CORDS' per-column statistics and stamp-array
# pair counting against the sort-based oracle, the WAL frame codec under
# arbitrary damage, and the stream cell codec's inversion.
fuzz:
	$(GO) test -run=X -fuzz=FuzzCSVRoundTrip -fuzztime=30s ./internal/relation/
	$(GO) test -run=X -fuzz=FuzzCodesMatchKey -fuzztime=30s ./internal/relation/
	$(GO) test -run=X -fuzz=FuzzProductEquivalence -fuzztime=30s ./internal/partition/
	$(GO) test -run=X -fuzz=FuzzRefinerMatchesBuild -fuzztime=30s ./internal/partition/
	$(GO) test -run=X -fuzz=FuzzDiscoverRequest -fuzztime=30s ./internal/server/
	$(GO) test -run=X -fuzz=FuzzParseTableau -fuzztime=30s ./internal/discovery/cfddisc/
	$(GO) test -run=X -fuzz=FuzzSetODAgainstPairwise -fuzztime=30s ./internal/discovery/oddisc/
	$(GO) test -run=X -fuzz=FuzzAgreeSetsMatchOracle -fuzztime=30s ./internal/discovery/fastfd/
	$(GO) test -run=X -fuzz=FuzzCORDSMatchOracle -fuzztime=30s ./internal/discovery/cords/
	$(GO) test -run=X -fuzz=FuzzWALFrameRoundTrip -fuzztime=30s ./internal/wal/
	$(GO) test -run=X -fuzz=FuzzStreamKeyRoundTrip -fuzztime=30s ./internal/stream/

# Boots `deptool serve` on a real socket, exercises health/readiness/
# metrics/discover/validate plus a malformed-body rejection, then
# SIGTERMs and asserts a clean graceful drain.
serve-smoke:
	sh scripts/serve-smoke.sh

# The servebench driver is its own module (servebench/go.mod, replacing
# deptree with the checkout), so the root `go build ./...` skips it. This
# vets and tests it offline against the current internal API, so a change
# that breaks the benchmark driver fails here rather than at benchmark time.
servebench-check:
	cd servebench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) vet ./...
	cd servebench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) test ./...

# Benchmark pass: every benchmark runs once (-benchtime=1x keeps CI
# cheap), the text output lands in BENCH_4.txt and cmd/benchjson converts
# it to BENCH_4.json. No pipes: if the benchmarks error the first command
# fails the target, and benchjson refuses an input with no results.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x ./... > BENCH_4.txt
	$(GO) run ./cmd/benchjson -in BENCH_4.txt -out BENCH_4.json
	$(MAKE) benchdiff

# Warn (never fail: 1x runs are noisy) when allocs/op regressed >20%
# against the previous in-tree benchmark report.
benchdiff:
	$(GO) run ./cmd/benchjson -diff -old BENCH_3.json -new BENCH_4.json

# Million-row pass (opt-in; several GB of relation data, minutes of
# wall-clock): the set-based OD core vs the pairwise oracle (the latter
# in internal/discovery/oddisc, beside its test-only implementation),
# full-mode vs sample-then-verify discovery, and the budget-vs-sampling
# claim, plus the partiality pin test. Results land in BENCH_8.json and
# the alloc diff is reported against the standard pass's BENCH_4.json.
bench-large:
	DEPTREE_BENCH_LARGE=1 $(GO) test -run 'TestLarge' -bench 'BenchmarkLarge' -benchmem -benchtime=1x . ./internal/discovery/oddisc/ > BENCH_8.txt
	$(GO) run ./cmd/benchjson -in BENCH_8.txt -out BENCH_8.json
	$(GO) run ./cmd/benchjson -diff -old BENCH_4.json -new BENCH_8.json

# Streaming pass (opt-in; seeds million-row sessions, so each benchmark
# pays one full discovery run untimed): incremental revalidation of a 1%
# append for tane and od vs from-scratch discovery over the same rows,
# with the cache-upgrade hit rate reported inline, plus the ≥5x speedup
# pin test. Results land in BENCH_9.json and the alloc diff is reported
# against the standard pass's BENCH_4.json.
bench-stream:
	DEPTREE_BENCH_STREAM=1 $(GO) test -timeout 30m -run 'TestStreamSpeedup' -bench 'BenchmarkStream' -benchmem -benchtime=1x . > BENCH_9.txt
	$(GO) run ./cmd/benchjson -in BENCH_9.txt -out BENCH_9.json
	$(GO) run ./cmd/benchjson -diff -old BENCH_4.json -new BENCH_9.json

verify: build test race
