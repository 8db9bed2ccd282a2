// Million-row benchmark pass: the set-based OD core, full-relation
// discovery against sample-then-verify, and the budget-vs-sampling trade
// the sampling driver exists for. The set-based core's pairwise
// baseline, BenchmarkLargeODPairwise, lives beside the test-only oracle
// in internal/discovery/oddisc. The pass is opt-in — it allocates
// hundreds of MB and runs for minutes — so every entry point skips
// unless DEPTREE_BENCH_LARGE=1 is set (and always skips under -short),
// keeping the tier-1 `go test ./...` gate fast. With it set, the
// benchmarks join `make bench` and `make bench-large` runs the
// partiality pin test.
package deptree

import (
	"context"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/registry"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// largeRows is the headline scale of the pass.
const largeRows = 1_000_000

// Shape of the adversarial wide relation: a 4-column order-equivalent
// family (12 planted asc→asc ODs) plus 12 tail-noise columns whose
// candidates are only refutable in the final 5% of rows.
const (
	wideOrd  = 4
	wideTail = 12
)

// wideBudget is the wall-clock budget of the budget-vs-sampling pair:
// several times the sampled run's cost and a fraction of the full
// run's, so "sampled completes, full is partial" is timing-robust.
const wideBudget = 4 * time.Second

var (
	largeOnce sync.Once
	largeRel  *relation.Relation
	wideOnce  sync.Once
	wideRel   *relation.Relation
)

// requireLarge gates a large-pass entry point and returns the shared
// million-row relation (generated once per process).
func requireLarge(tb testing.TB) *relation.Relation {
	tb.Helper()
	gateLarge(tb)
	largeOnce.Do(func() { largeRel = gen.LargeOrdered(largeRows, 1) })
	return largeRel
}

// requireWide is requireLarge for the wide adversarial relation.
func requireWide(tb testing.TB) *relation.Relation {
	tb.Helper()
	gateLarge(tb)
	wideOnce.Do(func() { wideRel = gen.LargeWide(largeRows, wideOrd, wideTail, 1) })
	return wideRel
}

func gateLarge(tb testing.TB) {
	tb.Helper()
	if testing.Short() {
		tb.Skip("large-relation pass skipped in -short mode")
	}
	if os.Getenv("DEPTREE_BENCH_LARGE") == "" {
		tb.Skip("set DEPTREE_BENCH_LARGE=1 to run the million-row pass")
	}
}

// BenchmarkLargeODSetBased is the headline number: set-based OD
// discovery (fail-fast pre-pass, then one lazy sort per touched column)
// at one million rows.
func BenchmarkLargeODSetBased(b *testing.B) {
	r := requireLarge(b)
	opts := oddisc.Options{Exec: engine.Exec{Workers: runtime.NumCPU()}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := oddisc.DiscoverContext(context.Background(), r, opts)
		if res.Partial || len(res.ODs) == 0 {
			b.Fatalf("unexpected result: partial=%v ods=%d", res.Partial, len(res.ODs))
		}
	}
}

// runRegistry runs one registered discoverer over the large relation.
func runRegistry(tb testing.TB, r *relation.Relation, algo string, o registry.RunOptions) registry.Output {
	tb.Helper()
	a, ok := registry.Lookup(algo)
	if !ok {
		tb.Fatalf("%s not registered", algo)
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	return a.Run(context.Background(), r, o)
}

// BenchmarkLargeTANEFull mines FDs over the full million rows.
func BenchmarkLargeTANEFull(b *testing.B) {
	r := requireLarge(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runRegistry(b, r, "tane", registry.RunOptions{})
		if out.Partial || len(out.Lines) == 0 {
			b.Fatalf("unexpected result: partial=%v lines=%d", out.Partial, len(out.Lines))
		}
	}
}

// BenchmarkLargeTANESampled mines FD candidates on a 20k-row sample and
// verifies each exactly on the full million rows (through the shared
// partition cache — every verified FD would otherwise rebuild its
// partitions from row values).
func BenchmarkLargeTANESampled(b *testing.B) {
	r := requireLarge(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runRegistry(b, r, "tane", registry.RunOptions{SampleRows: 20_000, SampleSeed: 1})
		if out.Partial || len(out.Lines) == 0 {
			b.Fatalf("unexpected result: partial=%v lines=%d", out.Partial, len(out.Lines))
		}
	}
}

// BenchmarkLargeODSampled: sample-then-verify OD discovery — candidates
// from a 20k-row sample, each verified by the set-based verifier's
// linear scan over the full relation.
func BenchmarkLargeODSampled(b *testing.B) {
	r := requireLarge(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runRegistry(b, r, "od", registry.RunOptions{SampleRows: 20_000, SampleSeed: 1})
		if out.Partial || len(out.Lines) == 0 {
			b.Fatalf("unexpected result: partial=%v lines=%d", out.Partial, len(out.Lines))
		}
	}
}

// BenchmarkLargeWideODFull is the adversarial full-relation cost the
// budget exists for: every tail candidate pays a ~0.95·n fail-fast scan
// before refutation.
func BenchmarkLargeWideODFull(b *testing.B) {
	r := requireWide(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runRegistry(b, r, "od", registry.RunOptions{})
		if out.Partial || len(out.Lines) == 0 {
			b.Fatalf("unexpected result: partial=%v lines=%d", out.Partial, len(out.Lines))
		}
	}
}

// BenchmarkLargeWideODFullBudgeted pins the budget half of the
// operational claim in the benchmark record itself: under wideBudget the
// full run is truncated to a partial prefix.
func BenchmarkLargeWideODFullBudgeted(b *testing.B) {
	r := requireWide(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runRegistry(b, r, "od", registry.RunOptions{Budget: engine.Budget{Timeout: wideBudget}})
		if !out.Partial {
			b.Fatal("full-mode run completed within wideBudget — the budget no longer binds")
		}
	}
}

// BenchmarkLargeWideODSampled is the sampling half of the claim: under
// the same budget, sample-then-verify completes with the planted family.
func BenchmarkLargeWideODSampled(b *testing.B) {
	r := requireWide(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runRegistry(b, r, "od", registry.RunOptions{
			Budget: engine.Budget{Timeout: wideBudget}, SampleRows: 20_000, SampleSeed: 1,
		})
		if out.Partial || len(out.Lines) == 0 {
			b.Fatalf("unexpected result: partial=%v lines=%d", out.Partial, len(out.Lines))
		}
	}
}

// TestLargeSampleCompletesWhereFullIsPartial pins the pass's operational
// claim on the wide relation: under the same wall-clock budget and the
// same registered discoverer, full-relation discovery is
// budget-truncated (partial) while sample-then-verify completes with a
// sound subset of the unbudgeted full output.
func TestLargeSampleCompletesWhereFullIsPartial(t *testing.T) {
	r := requireWide(t)
	budget := engine.Budget{Timeout: wideBudget}

	sampled := runRegistry(t, r, "od", registry.RunOptions{
		Budget: budget, SampleRows: 20_000, SampleSeed: 1,
	})
	if sampled.Partial {
		t.Fatalf("sampled run did not complete within %v: %s", budget.Timeout, sampled.Reason)
	}
	if len(sampled.Lines) == 0 {
		t.Fatal("sampled run found no ODs (planted order-equivalent family missing)")
	}

	full := runRegistry(t, r, "od", registry.RunOptions{Budget: budget})
	if !full.Partial {
		t.Fatalf("full-mode run completed within %v — budget no longer binds, raise largeRows or wideTail",
			budget.Timeout)
	}

	// Soundness under truncation: everything the sampled run emitted is
	// verified on the full relation, so it must appear in the complete
	// full-mode output.
	fullOut := runRegistry(t, r, "od", registry.RunOptions{})
	if fullOut.Partial {
		t.Fatalf("unbudgeted full run partial: %s", fullOut.Reason)
	}
	set := map[string]bool{}
	for _, l := range fullOut.Lines {
		set[l] = true
	}
	for _, l := range sampled.Lines {
		if !set[l] {
			t.Fatalf("sampled run emitted %q, absent from full output", l)
		}
	}
}
