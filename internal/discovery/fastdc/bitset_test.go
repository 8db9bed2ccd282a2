package fastdc

import (
	"context"
	"sort"
	"testing"

	"deptree/internal/deps/dc"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// The BFASTDC-style bitwise evidence path (Pena & de Almeida [78], paper
// §4.3.4) is kept here as the test oracle of the served DiscoverContext:
// evidence sets are packed into uint64 words and cover checks become
// AND/mask operations. It shares only PredicateSpace and containsAll with
// the served path; evidence scan, cover search and minimality pass are
// independent. BenchmarkAblationBFASTDC measures the two against each
// other (DESIGN.md §4).

// bitEvidence is one distinct evidence set as a packed bitmask.
type bitEvidence struct {
	// words holds ⌈|space|/64⌉ packed predicate bits.
	words []uint64
	// count is the multiplicity over ordered tuple pairs.
	count int
}

// has reports whether predicate p is in the evidence set.
func (e bitEvidence) has(p int) bool {
	return e.words[p/64]&(1<<(p%64)) != 0
}

// evidenceSetsBitset computes the distinct evidence sets in packed form.
func evidenceSetsBitset(r *relation.Relation, space []dc.Predicate) []bitEvidence {
	words := (len(space) + 63) / 64
	seen := map[string]int{}
	var out []bitEvidence
	buf := make([]uint64, words)
	key := make([]byte, words*8)
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < r.Rows(); j++ {
			if i == j {
				continue
			}
			for w := range buf {
				buf[w] = 0
			}
			for p, pred := range space {
				if pred.Eval(r, i, j) {
					buf[p/64] |= 1 << (p % 64)
				}
			}
			for w, v := range buf {
				for b := 0; b < 8; b++ {
					key[w*8+b] = byte(v >> (8 * b))
				}
			}
			k := string(key)
			if idx, ok := seen[k]; ok {
				out[idx].count++
				continue
			}
			seen[k] = len(out)
			out = append(out, bitEvidence{words: append([]uint64(nil), buf...), count: 1})
		}
	}
	return out
}

// discoverBitset is FASTDC on the bitwise path: no budget, no stripes, no
// stop polling, the packed evidence driving the cover search.
func discoverBitset(r *relation.Relation, opts Options) []dc.DC {
	opts = opts.withDefaults()
	if r.Rows() < 2 {
		return nil
	}
	space := PredicateSpace(r, opts.CrossColumn)
	evidence := evidenceSetsBitset(r, space)
	totalPairs := 0
	for _, e := range evidence {
		totalPairs += e.count
	}
	budget := int(opts.MaxViolations * float64(totalPairs))
	words := (len(space) + 63) / 64

	var covers [][]int
	isSupersetOfCover := func(sel []int) bool {
		for _, c := range covers {
			if containsAll(sel, c) {
				return true
			}
		}
		return false
	}
	// selMask mirrors sel as a packed mask for the AND-based check.
	selMask := make([]uint64, words)
	var dfs func(sel []int, startAt int)
	dfs = func(sel []int, startAt int) {
		violating := 0
		for _, e := range evidence {
			all := true
			for w := range selMask {
				if e.words[w]&selMask[w] != selMask[w] {
					all = false
					break
				}
			}
			if all {
				violating += e.count
			}
		}
		if len(sel) > 0 && violating <= budget {
			if !isSupersetOfCover(sel) {
				covers = append(covers, append([]int(nil), sel...))
			}
			return
		}
		if len(sel) >= opts.MaxPredicates {
			return
		}
		for p := startAt; p < len(space); p++ {
			next := append(sel, p)
			if isSupersetOfCover(next) {
				continue
			}
			selMask[p/64] |= 1 << (p % 64)
			dfs(next, p+1)
			selMask[p/64] &^= 1 << (p % 64)
		}
	}
	dfs(nil, 0)
	var minimal [][]int
	for i, c := range covers {
		keep := true
		for j, d := range covers {
			if i != j && len(d) < len(c) && containsAll(c, d) {
				keep = false
				break
			}
		}
		if keep {
			minimal = append(minimal, c)
		}
	}
	out := make([]dc.DC, 0, len(minimal))
	for _, cover := range minimal {
		preds := make([]dc.Predicate, 0, len(cover))
		for _, pi := range cover {
			preds = append(preds, space[pi])
		}
		out = append(out, dc.DC{Predicates: preds, Schema: r.Schema()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// checkMatchesOracle fails unless the served path returns exactly the
// oracle's DCs, in the same order.
func checkMatchesOracle(t *testing.T, name string, r *relation.Relation, opts Options) {
	t.Helper()
	res := DiscoverContext(context.Background(), r, opts)
	if res.Partial {
		t.Fatalf("%s: unbudgeted run came back partial (%s)", name, res.Reason)
	}
	want := discoverBitset(r, opts)
	if len(res.DCs) != len(want) {
		t.Fatalf("%s: served path %d DCs, bitset oracle %d", name, len(res.DCs), len(want))
	}
	for i := range want {
		if res.DCs[i].String() != want[i].String() {
			t.Fatalf("%s: DC %d differs: %s vs %s", name, i, res.DCs[i], want[i])
		}
	}
}

func TestBitsetAgreesWithBoolPath(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := gen.Hotels(gen.HotelConfig{Rows: 30, Seed: seed, ErrorRate: 0.1})
		checkMatchesOracle(t, "hotels", r, Options{MaxPredicates: 2})
	}
}

func TestBitEvidenceCounts(t *testing.T) {
	r := gen.Table7()
	space := PredicateSpace(r, false)
	bits := evidenceSetsBitset(r, space)
	bools, counts := EvidenceSets(r, space)
	if len(bits) != len(bools) {
		t.Fatalf("distinct evidence: bitset %d vs bool %d", len(bits), len(bools))
	}
	// Decode each packed set and match it, with its multiplicity, to the
	// served path's bool-slice evidence.
	want := map[string]int{}
	for i, ev := range bools {
		want[boolKey(ev)] = counts[i]
	}
	total := 0
	for _, e := range bits {
		decoded := make([]bool, len(space))
		for p := range space {
			decoded[p] = e.has(p)
		}
		if c, ok := want[boolKey(decoded)]; !ok || c != e.count {
			t.Fatalf("evidence %v: bitset count %d, bool count %d (present %v)", decoded, e.count, c, ok)
		}
		total += e.count
	}
	if total != r.Rows()*(r.Rows()-1) {
		t.Errorf("pair total %d, want %d", total, r.Rows()*(r.Rows()-1))
	}
}

func boolKey(ev []bool) string {
	b := make([]byte, len(ev))
	for i, v := range ev {
		if v {
			b[i] = 1
		}
	}
	return string(b)
}

func TestBitsetApproximate(t *testing.T) {
	checkMatchesOracle(t, "table7", gen.Table7().Clone(), Options{MaxPredicates: 2, MaxViolations: 0.2})
	for seed := int64(0); seed < 4; seed++ {
		r := gen.Hotels(gen.HotelConfig{Rows: 30, Seed: seed, ErrorRate: 0.1})
		checkMatchesOracle(t, "hotels", r, Options{MaxPredicates: 2, MaxViolations: 0.2})
	}
}

func TestBitsetTiny(t *testing.T) {
	for _, rows := range []int{0, 1} {
		r := gen.Table7().Select(func(i int) bool { return i < rows })
		if got := discoverBitset(r, Options{}); got != nil {
			t.Errorf("%d rows: oracle %v", rows, got)
		}
		if got := DiscoverContext(context.Background(), r, Options{}); got.DCs != nil || got.Partial {
			t.Errorf("%d rows: served %+v", rows, got)
		}
	}
}

// BenchmarkAblationBFASTDC compares the served bool-slice FASTDC search
// against the BFASTDC bitwise oracle [78]: same minimal DCs, different
// inner loop and memory profile.
func BenchmarkAblationBFASTDC(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 60, Seed: 77, ErrorRate: 0.1})
	b.Run("bool", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DiscoverContext(context.Background(), r, Options{MaxPredicates: 2})
		}
	})
	b.Run("bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			discoverBitset(r, Options{MaxPredicates: 2})
		}
	})
}
