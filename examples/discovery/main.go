// Discovery: profile a synthetic multi-source hotel relation with the
// discovery algorithms the paper surveys — TANE and FastFD (exact FDs,
// cross-checked), approximate FDs, CORDS soft FDs, constant CFDs, order
// dependencies, denial constraints (FASTDC) and a sequential-dependency
// interval fit — the §1.4.2 landscape on one dataset.
//
//	go run ./examples/discovery
package main

import (
	"context"
	"fmt"

	"deptree/internal/discovery/cfddisc"
	"deptree/internal/discovery/cords"
	"deptree/internal/discovery/fastdc"
	"deptree/internal/discovery/fastfd"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/sddisc"
	"deptree/internal/discovery/tane"
	"deptree/internal/gen"
)

func main() {
	ctx := context.Background()
	r := gen.Hotels(gen.HotelConfig{
		Rows: 120, Seed: 7,
		ErrorRate: 0.05, VarietyRate: 0.1, DuplicateRate: 0.1,
	})
	fmt.Printf("profiling %d tuples x %d attributes of dirty hotel data\n\n", r.Rows(), r.Cols())

	exact := tane.DiscoverContext(ctx, r, tane.Options{MaxLHS: 2}).FDs
	cross := fastfd.DiscoverContext(ctx, r, fastfd.Options{}).FDs
	fmt.Printf("== exact minimal FDs: TANE found %d (FastFD agrees on the full lattice: %d) ==\n",
		len(exact), len(cross))
	for i, f := range exact {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", len(exact)-8)
			break
		}
		fmt.Printf("  %s\n", f)
	}

	approx := tane.DiscoverContext(ctx, r, tane.Options{MaxError: 0.05, MaxLHS: 1}).FDs
	fmt.Printf("\n== approximate FDs (g3 <= 0.05): %d ==\n", len(approx))
	for i, f := range approx {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(approx)-5)
			break
		}
		fmt.Printf("  %s  (g3=%.3f)\n", f, f.G3(r))
	}

	soft := cords.DiscoverContext(ctx, r, cords.Options{MinStrength: 0.9, SampleSize: 80})
	fmt.Printf("\n== CORDS soft FDs (strength >= 0.9, 80-row sample): %d ==\n", len(soft.SFDs))
	flagged := 0
	for _, c := range soft.Correlations {
		if c.Correlated {
			flagged++
		}
	}
	fmt.Printf("  chi-square flagged %d correlated column pairs\n", flagged)

	consts := cfddisc.DiscoverContext(ctx, r, cfddisc.Options{MinSupport: 5, MaxLHS: 1}).CFDs
	fmt.Printf("\n== constant CFDs (support >= 5): %d ==\n", len(consts))
	for i, c := range consts {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(consts)-5)
			break
		}
		fmt.Printf("  %s  (support %d)\n", c, c.Support(r))
	}

	ods := oddisc.Minimal(oddisc.DiscoverContext(ctx, r, oddisc.Options{}).ODs)
	fmt.Printf("\n== minimal order dependencies: %d ==\n", len(ods))
	for i, o := range ods {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(ods)-5)
			break
		}
		fmt.Printf("  %s\n", o)
	}

	dcs := fastdc.DiscoverContext(ctx, r.Select(func(i int) bool { return i < 60 }), fastdc.Options{MaxPredicates: 2}).DCs
	fmt.Printf("\n== FASTDC denial constraints (60-row sample, <= 2 predicates): %d ==\n", len(dcs))
	for i, d := range dcs {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(dcs)-5)
			break
		}
		fmt.Printf("  %s\n", d)
	}

	series := gen.Series(300, 9, 11, 0.05, 7)
	g := sddisc.FitInterval(series, []int{0}, 1, 0.9)
	fmt.Printf("\n== sequential dependency fit on a polling series ==\n")
	fmt.Printf("  seq ->_%s value at 90%% confidence (true step interval: [9,11])\n", g)
}
