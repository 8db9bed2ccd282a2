// Streaming benchmark pass: the incremental session against
// from-scratch discovery on the same rows.
// Each incremental benchmark seeds a session with the million-row base
// (untimed), then times the revalidation of one 1% append batch; the
// FromScratch counterparts time full discovery over base+batch, which is
// exactly the work the incremental path avoids. The pass is opt-in like
// the large pass — set DEPTREE_BENCH_STREAM=1 — since seeding the
// sessions costs a full discovery run each. With it set, the benchmarks
// join `make bench` and `make bench-stream` runs the speedup pin test.
package deptree

import (
	"context"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/stream"
)

// streamBaseRows / streamBatchRows pin the headline shape: a 1% append
// on a million-row ordered relation.
const (
	streamBaseRows  = 1_000_000
	streamBatchRows = 10_000
)

var (
	streamOnce sync.Once
	streamPlan gen.AppendPlan
	streamFull *relation.Relation // base + first batch, for the from-scratch side
)

func requireStreamPlan(tb testing.TB) gen.AppendPlan {
	tb.Helper()
	if testing.Short() {
		tb.Skip("stream pass skipped in -short mode")
	}
	if os.Getenv("DEPTREE_BENCH_STREAM") == "" {
		tb.Skip("set DEPTREE_BENCH_STREAM=1 to run the streaming pass")
	}
	streamOnce.Do(func() {
		streamPlan = gen.AppendBatches(gen.AppendConfig{
			BaseRows: streamBaseRows, BatchRows: streamBatchRows, Batches: 2, Seed: 1,
		})
		streamFull = relation.New("stream-full", streamPlan.Base.Schema())
		for i := 0; i < streamPlan.Base.Rows(); i++ {
			if err := streamFull.Append(streamPlan.Base.Tuple(i)); err != nil {
				panic(err)
			}
		}
		for _, row := range streamPlan.Batches[0] {
			if err := streamFull.Append(row); err != nil {
				panic(err)
			}
		}
	})
	return streamPlan
}

// seedSession builds a session over the plan's base rows — the state an
// operator holds before the batch arrives. Not part of the timed region.
func seedSession(tb testing.TB, algo string, plan gen.AppendPlan, reg *obs.Registry) *stream.Session {
	tb.Helper()
	sess, err := stream.NewSession(algo, plan.Base.Schema(), stream.Options{
		Workers: runtime.NumCPU(), Obs: reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([][]relation.Value, plan.Base.Rows())
	for i := range rows {
		rows[i] = plan.Base.Tuple(i)
	}
	res, err := sess.AppendBatch(context.Background(), rows)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Partial || len(res.Lines) == 0 {
		tb.Fatalf("seed discovery: partial=%v lines=%d", res.Partial, len(res.Lines))
	}
	return sess
}

// benchStreamAppend times the incremental revalidation of one 1% batch
// on a freshly seeded session, reporting the cache-upgrade hit rate
// (upgrades carried in place / entries touched by Upgrade) for the
// partition-cache-backed algorithms.
func benchStreamAppend(b *testing.B, algo string) {
	plan := requireStreamPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	var upgrades, evicts int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg := obs.New()
		sess := seedSession(b, algo, plan, reg)
		b.StartTimer()
		res, err := sess.AppendBatch(context.Background(), plan.Batches[0])
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if res.Partial || len(res.Lines) == 0 {
			b.Fatalf("append revalidation: partial=%v lines=%d", res.Partial, len(res.Lines))
		}
		upgrades += reg.Counter("cache.upgrades").Value()
		evicts += reg.Counter("cache.upgrade_evictions").Value()
		b.StartTimer()
	}
	if total := upgrades + evicts; total > 0 {
		b.ReportMetric(float64(upgrades)/float64(total), "upgrade-hit-rate")
	}
}

// The million-row pass covers tane and od, the same pair the large pass
// headlines: fastfd's difference-set seed and lexod's pairwise demotion
// probes cost minutes at this scale, and their incremental paths are
// already pinned batch-by-batch by the differential suite.
func BenchmarkStreamTANEAppend(b *testing.B) { benchStreamAppend(b, "tane") }
func BenchmarkStreamODAppend(b *testing.B)   { benchStreamAppend(b, "od") }

// benchStreamScratch is the from-scratch counterpart: full discovery
// over the same base+batch rows, via a fresh one-batch session so both
// sides run the identical discovery configuration.
func benchStreamScratch(b *testing.B, algo string) {
	requireStreamPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := stream.NewSession(algo, streamFull.Schema(), stream.Options{Workers: runtime.NumCPU()})
		if err != nil {
			b.Fatal(err)
		}
		rows := make([][]relation.Value, streamFull.Rows())
		for j := range rows {
			rows[j] = streamFull.Tuple(j)
		}
		b.StartTimer()
		res, err := sess.AppendBatch(context.Background(), rows)
		if err != nil {
			b.Fatal(err)
		}
		if res.Partial || len(res.Lines) == 0 {
			b.Fatalf("from-scratch discovery: partial=%v lines=%d", res.Partial, len(res.Lines))
		}
	}
}

func BenchmarkStreamTANEFromScratch(b *testing.B) { benchStreamScratch(b, "tane") }
func BenchmarkStreamODFromScratch(b *testing.B)   { benchStreamScratch(b, "od") }

// TestStreamSpeedupAtScale pins the pass's acceptance claim in the
// record itself: for tane and od, incrementally revalidating a 1% append
// on a million-row session is at least 5x faster than discovering from
// scratch over the same rows. Wall-clock comparisons are noisy, so the
// bound uses a single measured pair per algorithm with generous slack
// over the typical gap (observed well above 100x).
func TestStreamSpeedupAtScale(t *testing.T) {
	plan := requireStreamPlan(t)
	for _, algo := range []string{"tane", "od"} {
		sess := seedSession(t, algo, plan, nil)
		start := time.Now()
		res, err := sess.AppendBatch(context.Background(), plan.Batches[0])
		if err != nil {
			t.Fatal(err)
		}
		inc := time.Since(start)
		if res.Partial {
			t.Fatalf("%s incremental append partial: %s", algo, res.Reason)
		}

		scratch, err := stream.NewSession(algo, streamFull.Schema(), stream.Options{Workers: runtime.NumCPU()})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]relation.Value, streamFull.Rows())
		for j := range rows {
			rows[j] = streamFull.Tuple(j)
		}
		start = time.Now()
		sres, err := scratch.AppendBatch(context.Background(), rows)
		if err != nil {
			t.Fatal(err)
		}
		full := time.Since(start)
		if sres.Partial {
			t.Fatalf("%s from-scratch partial: %s", algo, sres.Reason)
		}
		if got, want := res.Lines, sres.Lines; len(got) != len(want) {
			t.Fatalf("%s ruleset sizes diverge: incremental %d, scratch %d", algo, len(got), len(want))
		}
		t.Logf("%s: incremental %v, from-scratch %v (%.1fx)", algo, inc, full, float64(full)/float64(inc))
		if full < 5*inc {
			t.Errorf("%s: incremental %v not ≥5x faster than from-scratch %v", algo, inc, full)
		}
	}
}
