// Benchmarks for the deeper algorithm variants and the §5 future-work
// extensions: CTANE-style general CFDs, range eCFDs, lexicographic OD
// discovery, the matching↔repairing interaction, and SCREEN speed-
// constraint fitting/repair.
package deptree

import (
	"fmt"
	"testing"

	"deptree/internal/apps/repair"
	"deptree/internal/deps/fd"
	"deptree/internal/deps/md"
	"deptree/internal/discovery/cfddisc"
	"deptree/internal/discovery/fastdc"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/ext/speed"
	"deptree/internal/gen"
)

func BenchmarkGeneralCFDDiscovery(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 80, Seed: 67, ErrorRate: 0.1})
	region := r.Schema().MustIndex("region")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfddisc.GeneralCFDs(r, cfddisc.GeneralOptions{RHS: region, MinSupport: 3, MaxLHS: 2})
	}
}

func BenchmarkRangeECFDDiscovery(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 100, Seed: 69, ErrorRate: 0.1})
	s := r.Schema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfddisc.RangeECFDs(r, s.MustIndex("price"), []int{s.MustIndex("address")}, s.MustIndex("region"), 2)
	}
}

func BenchmarkLexODDiscovery(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 80, Seed: 71})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oddisc.DiscoverLex(r, oddisc.LexOptions{MaxWidth: 2})
	}
}

func BenchmarkInteractiveClean(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 100, Seed: 73, ErrorRate: 0.1, DuplicateRate: 0.2})
	s := r.Schema()
	f := fd.Must(s, []string{"address"}, []string{"region"})
	m := md.MD{
		LHS:    []md.SimAttr{md.Sim(s, "address", 2)},
		RHS:    []int{s.MustIndex("region")},
		Schema: s,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		repair.InteractiveClean(r, []md.MD{m}, []fd.FD{f}, 3)
	}
}

// BenchmarkAblationBFASTDC compares the bool-slice FASTDC search against
// the BFASTDC bitwise variant [78] — same minimal DCs, different inner
// loop and memory profile.
func BenchmarkAblationBFASTDC(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 60, Seed: 77, ErrorRate: 0.1})
	b.Run("bool", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fastdc.Discover(r, fastdc.Options{MaxPredicates: 2})
		}
	})
	b.Run("bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fastdc.DiscoverBitset(r, fastdc.Options{MaxPredicates: 2})
		}
	})
}

// BenchmarkEngineWorkers captures the speedup curve of the parallel
// discovery engine over TANE and FASTDC: the same workload at 1, 2, 4 and
// 8 workers (1 is the sequential legacy path). BENCH json diffs across
// worker counts give the scaling figure for the Fig 3 difficulty band.
func BenchmarkEngineWorkers(b *testing.B) {
	taneRel := gen.Hotels(gen.HotelConfig{Rows: 300, Seed: 83, ErrorRate: 0.05, VarietyRate: 0.1})
	dcRel := gen.Hotels(gen.HotelConfig{Rows: 70, Seed: 85, ErrorRate: 0.1})
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tane/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tane.Discover(taneRel, tane.Options{Exec: engine.Exec{Workers: w}})
			}
		})
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("fastdc/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fastdc.Discover(dcRel, fastdc.Options{MaxPredicates: 2, Exec: engine.Exec{Workers: w}})
			}
		})
	}
}

func BenchmarkSpeedConstraint(b *testing.B) {
	r := gen.Series(1000, 9, 11, 0.1, 75)
	b.Run("fit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := speed.Fit(r, 0, 1, 0.9); err != nil {
				b.Fatal(err)
			}
		}
	})
	c, err := speed.Fit(r, 0, 1, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("repair-greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Repair(r)
		}
	})
	b.Run("repair-median", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.RepairMedian(r)
		}
	})
}
