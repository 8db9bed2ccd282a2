package oddisc

import (
	"context"
	"os"
	"runtime"
	"sort"
	"testing"

	"deptree/internal/deps/od"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// discoverPairwise is the pairwise oracle for DiscoverContext: one
// od.Holds check per candidate, with no shared per-column preparation,
// under the same candidate order and budget semantics.
func discoverPairwise(ctx context.Context, r *relation.Relation, opts Options) Result {
	_, cands := candidates(r, opts)
	pool := opts.Pool(ctx)
	defer pool.Close()
	valid, done, err := engine.MapBudget(pool, len(cands), 0, func(i int) bool { return cands[i].Holds(r) })
	var out []od.OD
	for i := 0; i < done; i++ {
		if valid[i] {
			out = append(out, cands[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return Result{ODs: out, Completed: done, Stop: engine.StopAt(nil, err)}
}

// BenchmarkLargeODPairwise is the baseline the set-based core must beat
// (BenchmarkLargeODSetBased in the root package): the pairwise oracle,
// which re-sorts per candidate instead of amortizing one sort per
// column, at one million rows. Opt-in like the rest of the large pass:
// it skips unless DEPTREE_BENCH_LARGE=1 is set, and under -short.
func BenchmarkLargeODPairwise(b *testing.B) {
	if testing.Short() {
		b.Skip("large-relation pass skipped in -short mode")
	}
	if os.Getenv("DEPTREE_BENCH_LARGE") == "" {
		b.Skip("set DEPTREE_BENCH_LARGE=1 to run the million-row pass")
	}
	r := gen.LargeOrdered(1_000_000, 1)
	opts := Options{Exec: engine.Exec{Workers: runtime.NumCPU()}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := discoverPairwise(context.Background(), r, opts)
		if res.Partial || len(res.ODs) == 0 {
			b.Fatalf("unexpected result: partial=%v ods=%d", res.Partial, len(res.ODs))
		}
	}
}
