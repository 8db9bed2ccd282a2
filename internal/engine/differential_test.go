// Differential harness: every parallelized discovery algorithm must emit a
// byte-identical, canonically-sorted result set for workers=1 (the
// sequential legacy path) and workers=4. Godfrey et al.'s errata on OD
// discovery (PAPERS.md) shows how easily discovery algorithms harbor
// subtle completeness bugs; this harness is the safety net under every
// parallelization and cache change in the engine.
//
// The harness is table-driven over the discoverer registry: one
// DiscovererCase per registered algorithm, with a completeness test that
// fails if a server endpoint has no case — enrolling a new algorithm in
// the registry without enrolling it here is a test failure, not a silent
// gap.
package engine_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"deptree/internal/discovery/cords"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/registry"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/server"
)

const diffWorkers = 4

// corpus returns ≥20 seeded synthetic relations spanning the generator
// families: categorical, planted-FD, hotel (variety+veracity+duplicates),
// and numerical series. Sizes are kept small enough that the full
// differential sweep stays fast under -race.
func corpus() []*relation.Relation {
	var rs []*relation.Relation
	for seed := int64(1); seed <= 7; seed++ {
		rs = append(rs, gen.Categorical(50, []int{2, 3, 4, 5, 3}, seed))
		rs = append(rs, gen.WithFD(60, []int{3, 4, 5}, 0.1, seed))
		rs = append(rs, gen.Hotels(gen.HotelConfig{
			Rows: 40, Seed: seed,
			ErrorRate: 0.1, VarietyRate: 0.2, DuplicateRate: 0.1,
		}))
	}
	return rs
}

// trim caps a relation at max rows (pair-quadratic algorithms).
func trim(r *relation.Relation, max int) *relation.Relation {
	if r.Rows() <= max {
		return r
	}
	return r.Select(func(row int) bool { return row < max })
}

// DiscovererCase enrolls one registered algorithm in the differential
// harness with the corpus it sweeps.
type DiscovererCase struct {
	// Algo is the registry/endpoint name.
	Algo string
	// Corpus is the relation set the differential sweep runs over. The
	// satellite contract: every case covers at least the paper's Table 1
	// and a synthetic hotels relation.
	Corpus []*relation.Relation
}

// discovererCases is the harness table: every server endpoint must appear
// here (TestDifferentialCompleteness proves it). The original five
// engine-wired algorithms keep the full 21-relation corpus; the
// pair-quadratic family-tree discoverers sweep Table 1 plus hotels
// instances sized for the O(n²)-per-candidate work they do.
func discovererCases() []DiscovererCase {
	full := corpus()
	table1 := gen.Table1()
	hotels := gen.Hotels(gen.HotelConfig{
		Rows: 40, Seed: 3,
		ErrorRate: 0.1, VarietyRate: 0.2, DuplicateRate: 0.1,
	})
	small := []*relation.Relation{table1, hotels}
	tiny := []*relation.Relation{table1, trim(hotels, 25)}
	trimmedFull := make([]*relation.Relation, len(full))
	for i, r := range full {
		trimmedFull[i] = trim(r, 25)
	}
	odCorpus := append(append([]*relation.Relation{}, small...), full...)
	for seed := int64(1); seed <= 5; seed++ {
		odCorpus = append(odCorpus, gen.Series(60, 1, 3, 0.1, seed))
	}
	return []DiscovererCase{
		{Algo: "tane", Corpus: append([]*relation.Relation{table1}, full...)},
		{Algo: "fastfd", Corpus: append([]*relation.Relation{table1}, full...)},
		{Algo: "cords", Corpus: append([]*relation.Relation{table1}, full...)},
		{Algo: "fastdc", Corpus: append([]*relation.Relation{table1}, trimmedFull...)},
		{Algo: "od", Corpus: odCorpus},
		{Algo: "lexod", Corpus: odCorpus},
		{Algo: "cfd", Corpus: small},
		{Algo: "pfd", Corpus: small},
		{Algo: "ffd", Corpus: small},
		{Algo: "md", Corpus: tiny},
		{Algo: "dd", Corpus: tiny},
		{Algo: "ned", Corpus: tiny},
		{Algo: "cd", Corpus: tiny},
		{Algo: "mvd", Corpus: small},
		{Algo: "sd", Corpus: small},
	}
}

// runAlgo executes one registered discoverer through the same
// registry path the server and CLI dispatch through.
func runAlgo(t *testing.T, algo string, r *relation.Relation, workers int, reg *obs.Registry) registry.Output {
	t.Helper()
	a, ok := registry.Lookup(algo)
	if !ok {
		t.Fatalf("algorithm %q not in registry", algo)
	}
	return a.Run(context.Background(), r, registry.RunOptions{Workers: workers, Obs: reg})
}

// render canonicalizes a result set: one fmt.Stringer per line. Discovery
// outputs are already sorted by contract; rendering makes the comparison
// byte-level.
func render[T fmt.Stringer](items []T) string {
	lines := make([]string, len(items))
	for i, it := range items {
		lines[i] = it.String()
	}
	return strings.Join(lines, "\n")
}

func assertIdentical(t *testing.T, name string, idx int, seq, par string) {
	t.Helper()
	if seq != par {
		t.Errorf("%s relation #%d: workers=1 and workers=%d outputs differ\n--- sequential ---\n%s\n--- parallel ---\n%s",
			name, idx, diffWorkers, seq, par)
	}
}

// TestDifferentialAllDiscoverers sweeps every registered discoverer over
// its corpus, asserting workers=1 and workers=4 produce byte-identical
// lines through the exact registry path the server serves.
func TestDifferentialAllDiscoverers(t *testing.T) {
	for _, c := range discovererCases() {
		c := c
		t.Run(c.Algo, func(t *testing.T) {
			t.Parallel()
			for i, r := range c.Corpus {
				seq := runAlgo(t, c.Algo, r, 1, nil)
				par := runAlgo(t, c.Algo, r, diffWorkers, nil)
				assertIdentical(t, c.Algo, i, strings.Join(seq.Lines, "\n"), strings.Join(par.Lines, "\n"))
				if seq.Partial || par.Partial {
					t.Errorf("%s relation #%d: unbudgeted run reported partial (seq=%v par=%v reason=%q)",
						c.Algo, i, seq.Partial, par.Partial, par.Reason)
				}
			}
		})
	}
}

// TestDifferentialCompleteness fails when a server endpoint has no
// differential case: the harness table and the endpoint table must cover
// exactly the same algorithm set.
func TestDifferentialCompleteness(t *testing.T) {
	cases := map[string]bool{}
	for _, c := range discovererCases() {
		if cases[c.Algo] {
			t.Errorf("duplicate differential case for %q", c.Algo)
		}
		cases[c.Algo] = true
		if len(c.Corpus) < 2 {
			t.Errorf("differential case %q has %d corpus relations, want >= 2 (Table 1 + hotels)", c.Algo, len(c.Corpus))
		}
	}
	for _, name := range server.Algorithms() {
		if !cases[name] {
			t.Errorf("server endpoint /v1/discover/%s has no differential case", name)
		}
	}
	for name := range cases {
		if _, ok := registry.Lookup(name); !ok {
			t.Errorf("differential case %q is not a registered algorithm", name)
		}
	}
}

// TestDifferentialTANEApproximate keeps deep coverage of the approximate
// (g3-budgeted) TANE path, which the registry's default option mapping
// does not exercise.
func TestDifferentialTANEApproximate(t *testing.T) {
	for i, r := range corpus() {
		seq := render(tane.DiscoverContext(context.Background(), r, tane.Options{MaxError: 0.05, MaxLHS: 2, Exec: engine.Exec{Workers: 1}}).FDs)
		par := render(tane.DiscoverContext(context.Background(), r, tane.Options{MaxError: 0.05, MaxLHS: 2, Exec: engine.Exec{Workers: diffWorkers}}).FDs)
		assertIdentical(t, "tane(g3<=0.05)", i, seq, par)
	}
}

// renderCORDS canonicalizes the full CORDS result, statistics included, so
// the comparison also covers the chi-square path.
func renderCORDS(res cords.Result) string {
	var b strings.Builder
	for _, s := range res.SFDs {
		fmt.Fprintf(&b, "%s\n", s.String())
	}
	for _, c := range res.Correlations {
		fmt.Fprintf(&b, "%d->%d s=%.9f chi=%.9f corr=%v\n", c.Col1, c.Col2, c.Strength, c.ChiSquare, c.Correlated)
	}
	return b.String()
}

// TestDifferentialCORDS keeps deep coverage of the full CORDS statistics
// (sampling seed and chi-square values), beyond the rendered SFD lines
// the registry emits.
func TestDifferentialCORDS(t *testing.T) {
	for i, r := range corpus() {
		seq := renderCORDS(cords.DiscoverContext(context.Background(), r, cords.Options{SampleSize: 30, Seed: int64(i), Exec: engine.Exec{Workers: 1}}))
		par := renderCORDS(cords.DiscoverContext(context.Background(), r, cords.Options{SampleSize: 30, Seed: int64(i), Exec: engine.Exec{Workers: diffWorkers}}))
		assertIdentical(t, "cords", i, seq, par)
	}
}

// TestDifferentialLexODErrata pins the order-compatibility semantics the
// Godfrey et al. errata note (PAPERS.md) calls out: a valid
// lexicographic OD needs the prefix FD *and* order compatibility — two
// columns that sort compatibly but do not determine each other's order
// must not yield an OD in either direction.
func TestDifferentialLexODErrata(t *testing.T) {
	// a and b are order compatible in the weak sense (their sorted orders
	// can be interleaved without conflict on ties), yet a ordering the
	// tuples does not order b: row (2,15) sorts after (1,20) on a while b
	// decreases. The errata's point is that compatibility alone must not
	// be taken as OD validity — the prefix FD condition matters too.
	schema := relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindInt},
		relation.Attribute{Name: "b", Kind: relation.KindInt},
		relation.Attribute{Name: "c", Kind: relation.KindInt},
	)
	r := relation.New("errata", schema)
	for _, row := range [][]int{
		{1, 10, 1},
		{1, 20, 2},
		{2, 15, 1}, // within a=2, b drops below a=1's max: OD [a] ~> [b] invalid
		{2, 25, 2},
	} {
		if err := r.Append([]relation.Value{relation.Int(row[0]), relation.Int(row[1]), relation.Int(row[2])}); err != nil {
			t.Fatal(err)
		}
	}
	res := oddisc.DiscoverLexContext(context.Background(), r, oddisc.LexOptions{MaxWidth: 2})
	for _, o := range res.ODs {
		if o.String() == "[a≤] ~> [b≤]" {
			t.Fatalf("order-compatible but non-order-determining columns yielded %s (errata violation)", o)
		}
	}
	seq := oddisc.DiscoverLexContext(context.Background(), r, oddisc.LexOptions{MaxWidth: 2, Exec: engine.Exec{Workers: 1}}).ODs
	par := oddisc.DiscoverLexContext(context.Background(), r, oddisc.LexOptions{MaxWidth: 2, Exec: engine.Exec{Workers: diffWorkers}}).ODs
	assertIdentical(t, "lexod-errata", 0, render(seq), render(par))
}
