# Verify flow for deptree. `make verify` is the tier-1 gate plus vet, the
# gofmt check, the race pass over the parallel discovery engine and
# every discovery package, and servebench-check, which builds and tests
# the benchmark driver against the internal API it reads: the steps of
# CI's test job.

GO ?= go

.PHONY: build vet test fmt-check race chaos recover torture fuzz bench bench-large deadline bench-stream serve-smoke servebench-check verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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

# Short fuzz passes: the CSV codec round trip, the hand-written CSV
# scanner (ReadCSVAuto, ReadCSVLimits with string and fixed kinds)
# against the retained encoding/csv two-stage reader under random
# Limits, error texts included, the append writer (WriteCSV) against the
# retained csv.Writer encoder byte for byte, the typed dictionary
# encoding (Codes/GroupCodes/Dict/SameKey) vs a Value.Key string
# reference, the CSR partition product vs the retained map-based oracle,
# the append refiner vs a from-scratch Build after every batch, the server's
# request pipeline across every registered discover route and every stream
# route (malformed bodies must always be structured 4xx, never a panic), the CFD
# pattern-tableau parser, the set-based OD core against the retained
# pairwise oracle, FastFD's single-visit agree-set sweep against the
# all-pairs oracle, CORDS' per-column statistics and stamp-array
# pair counting against the sort-based oracle, the similarity branch's
# pair kernel (distance tables, weighted tuple pairs, threshold picker)
# against the row-pair loops of internal/deps, the WAL frame codec under
# arbitrary damage, and the stream cell codec's inversion.
# Each pass runs 30 s. Minimizing a new interesting input is capped at
# 1 s: Go's default (60 s) could spend most of a pass at 0 execs/s while
# it shrank one input, and an execution cap still stalls the slow targets
# (2000 executions of FuzzCodesMatchKey take several seconds).
FUZZ = $(GO) test -run=X -fuzztime=30s -fuzzminimizetime=1s

fuzz:
	$(FUZZ) -fuzz=FuzzCSVRoundTrip ./internal/relation/
	$(FUZZ) -fuzz=FuzzCSVMatchesOracle ./internal/relation/
	$(FUZZ) -fuzz=FuzzWriteCSVMatchesOracle ./internal/relation/
	$(FUZZ) -fuzz=FuzzCodesMatchKey ./internal/relation/
	$(FUZZ) -fuzz=FuzzProductEquivalence ./internal/partition/
	$(FUZZ) -fuzz=FuzzRefinerMatchesBuild ./internal/partition/
	$(FUZZ) -fuzz=FuzzDiscoverRequest ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeBodyMatchesJSON ./internal/server/
	$(FUZZ) -fuzz=FuzzParseTableau ./internal/discovery/cfddisc/
	$(FUZZ) -fuzz=FuzzSetODAgainstPairwise ./internal/discovery/oddisc/
	$(FUZZ) -fuzz=FuzzAgreeSetsMatchOracle ./internal/discovery/fastfd/
	$(FUZZ) -fuzz=FuzzCORDSMatchOracle ./internal/discovery/cords/
	$(FUZZ) -fuzz=FuzzPairKernelMatchesOracle ./internal/metric/
	$(FUZZ) -fuzz=FuzzWALFrameRoundTrip ./internal/wal/
	$(FUZZ) -fuzz=FuzzStreamKeyRoundTrip ./internal/stream/

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

# Layer benchmarks: every go-test benchmark over ./..., five repeats of
# 100ms each, with allocation counts. cmd/benchjson groups the repeats
# into one report, bench-report.json (per benchmark: the median and
# quartiles of ns/op, the medians of B/op, allocs/op and custom metrics),
# and compares it with the tracked baseline BENCH.json: it prints
# "compared k of n", the benchmarks on one side only, allocs/op
# regressions above 20% and ns/op medians that moved by more than the
# baseline's interquartile range. No pipes: a failed benchmark fails the
# first command, and benchjson fails on a FAIL line, on empty input and
# when no benchmark matches the baseline. Promoting a run to the
# baseline is `cp bench-report.json BENCH.json`. The million-row
# benchmarks skip unless DEPTREE_BENCH_LARGE=1 or DEPTREE_BENCH_STREAM=1
# is set, and join the grid when it is.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -count 5 -benchtime 100ms -timeout 30m ./... > bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out bench-report.json -base BENCH.json

# Million-row partiality pin (opt-in; several GB of relation data):
# on a wide million-row relation, a budgeted full-mode OD run comes back
# partial while the sample-then-verify run completes.
bench-large:
	DEPTREE_BENCH_LARGE=1 $(GO) test -count=1 -run 'TestLarge' .

# Deadline conformance on the large shape (opt-in; the complete
# 3,000-row hotels runs the partial outputs are compared with take
# seconds): md, dd, ned, cd and fastdc must return within 50 ms of a
# 20 ms or 100 ms deadline with a line-prefix partial output.
deadline:
	DEPTREE_BENCH_LARGE=1 $(GO) test -count=1 -run TestDeadlineConformance ./internal/discovery/registry/

# Streaming speedup pin (opt-in; seeds million-row sessions): incremental
# revalidation of a 1% append must beat from-scratch discovery over the
# same rows by at least 5x for tane and od.
bench-stream:
	DEPTREE_BENCH_STREAM=1 $(GO) test -count=1 -timeout 30m -run 'TestStreamSpeedup' .

verify: build vet fmt-check test race servebench-check
