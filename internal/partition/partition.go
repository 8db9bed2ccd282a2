// Package partition implements stripped partitions (position list indices)
// as introduced by TANE [53],[54], the workhorse data structure for
// discovering and validating equality-based dependencies: FDs, AFDs (g3
// error), CFDs, keys, and the counting measures of SFDs and PFDs.
//
// A partition π_X groups rows with equal X-values into equivalence classes.
// A *stripped* partition drops singleton classes, since a row alone in its
// class can never participate in a violation.
//
// # Layout
//
// Partitions are stored in CSR (compressed-sparse-row) form: one backing
// rows array holding the concatenated stripped classes, plus an offsets
// array delimiting them. There are no per-class allocations, every
// operation walks contiguous memory, and the resident footprint is exactly
// two int32 slices (MemBytes is exact, which the engine's byte-bounded
// partition cache relies on for eviction).
//
// # Canonical form
//
// Every construction route — Build, FromCodes, Product — yields the same
// canonical partition: classes ordered by their first (smallest) row, rows
// ascending within each class. Construction never sorts to get there:
// FromCodes emits classes in code order (first-appearance codes are
// first-row order), and Product restores first-row order with a linear
// counting pass. Canonical form is what makes a partition cache hit
// indistinguishable from a rebuild, and what keeps limited enumerations
// (ViolatingPairs with a limit) deterministic.
//
// # Scratch arenas
//
// The hot-path operations (Product, G3, ViolatingPairs) need relation-
// sized probe and counting arrays. Those live in scratch arenas drawn
// from one package-level sync.Pool for the length of a call; its per-P
// free lists give each engine worker an effectively private arena, so the
// hot path allocates nothing beyond its result and synchronizes only on
// the arena handoff. Callers never see an arena.
package partition

import (
	"fmt"
	"math"

	"deptree/internal/attrset"
	"deptree/internal/relation"
)

// Partition is a stripped partition π_X over the rows of a relation, in
// CSR layout.
type Partition struct {
	// rows holds the concatenated stripped (size ≥ 2) classes: class i is
	// rows[offsets[i]:offsets[i+1]]. Classes are ordered by first row and
	// each class's rows are ascending.
	rows []int32
	// offsets delimits the classes; len(offsets) == NumClasses()+1, or 0
	// when the partition has no stripped class.
	offsets []int32
	// n is the total number of rows in the underlying relation.
	n int
	// card is |π_X| counting stripped singletons, i.e. the number of
	// distinct X-values.
	card int
}

// checkRows guards the int32 row representation. Relations beyond 2³¹−1
// rows are far outside the in-memory design envelope.
func checkRows(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("partition: relation with %d rows exceeds int32 row indices", n))
	}
}

// FromCodes builds the stripped partition of rows grouped by equal codes,
// in two counting passes and with no per-class allocation. Codes must lie
// in [0, card); classes are emitted in code order, which for
// first-appearance codes (relation.Codes, relation.GroupCodes) is exactly
// first-row order — the canonical form.
func FromCodes(codes []int, card int) *Partition {
	n := len(codes)
	checkRows(n)
	p := &Partition{n: n, card: card}
	if n < 2 {
		return p
	}
	// Pass 1: count class sizes per code.
	counts := make([]int32, card)
	for _, c := range codes {
		counts[c]++
	}
	covered, stripped := 0, 0
	for _, cnt := range counts {
		if cnt > 1 {
			stripped++
			covered += int(cnt)
		}
	}
	if stripped == 0 {
		return p
	}
	p.rows = make([]int32, covered)
	p.offsets = make([]int32, stripped+1)
	// Turn counts into per-code write cursors: counts[c] = next slot for a
	// row with code c, or -1 for singleton codes.
	pos := int32(0)
	ci := 0
	for c := range counts {
		if counts[c] > 1 {
			p.offsets[ci] = pos
			size := counts[c]
			counts[c] = pos
			pos += size
			ci++
		} else {
			counts[c] = -1
		}
	}
	p.offsets[stripped] = pos
	// Pass 2: place rows. Row order is ascending, so each class fills in
	// ascending row order.
	for row, c := range codes {
		if cursor := counts[c]; cursor >= 0 {
			p.rows[cursor] = int32(row)
			counts[c]++
		}
	}
	return p
}

// Build computes π_X for the attribute set x over r.
func Build(r *relation.Relation, x attrset.Set) *Partition {
	n := r.Rows()
	checkRows(n)
	if x.IsEmpty() {
		// π_∅ has a single class containing every row; on relations with
		// fewer than two rows it has no stripped class and |π_∅| = n.
		p := &Partition{n: n, card: 1}
		if n <= 1 {
			p.card = n
			return p
		}
		p.rows = make([]int32, n)
		for i := range p.rows {
			p.rows[i] = int32(i)
		}
		p.offsets = []int32{0, int32(n)}
		return p
	}
	if x.Len() == 1 {
		codes, card := r.Codes(x.First())
		return FromCodes(codes, card)
	}
	codes, card := r.GroupCodes(x.Cols())
	return FromCodes(codes, card)
}

// NumRows returns the number of rows of the underlying relation.
func (p *Partition) NumRows() int { return p.n }

// NumClasses returns the number of stripped (size ≥ 2) classes.
func (p *Partition) NumClasses() int {
	if len(p.offsets) == 0 {
		return 0
	}
	return len(p.offsets) - 1
}

// Cardinality returns |π_X|: the number of distinct X-values, singletons
// included.
func (p *Partition) Cardinality() int { return p.card }

// Class returns the i-th stripped class as a subslice of the backing rows
// array — no allocation. Callers must not modify it.
func (p *Partition) Class(i int) []int32 {
	return p.rows[p.offsets[i]:p.offsets[i+1]]
}

// Classes materializes the stripped classes as [][]int. It allocates one
// slice per class and exists for cold paths and tests; hot paths iterate
// NumClasses/Class instead.
func (p *Partition) Classes() [][]int {
	if p.NumClasses() == 0 {
		return nil
	}
	out := make([][]int, p.NumClasses())
	for i := range out {
		class := p.Class(i)
		c := make([]int, len(class))
		for j, row := range class {
			c[j] = int(row)
		}
		out[i] = c
	}
	return out
}

// Size returns ||π||, the total number of rows covered by stripped
// classes. O(1) in the CSR layout.
func (p *Partition) Size() int { return len(p.rows) }

// MemBytes returns the partition's exact resident memory: the struct and
// the two int32 backing arrays. The engine's partition cache uses it for
// byte-bounded eviction.
func (p *Partition) MemBytes() int64 {
	// Struct: two slice headers (2×24) and two ints (2×8).
	const structBytes = 64
	return structBytes + 4*int64(len(p.rows)) + 4*int64(len(p.offsets))
}

// Error returns e(X) = (||π|| − |stripped classes|) / n, TANE's measure of
// how far X is from being a key: the minimum fraction of rows to remove so
// that X has no duplicate values. O(1) in the CSR layout.
func (p *Partition) Error() float64 {
	if p.n == 0 {
		return 0
	}
	return float64(len(p.rows)-p.NumClasses()) / float64(p.n)
}

// IsKey reports whether X is a (super)key, i.e. no two rows agree on X.
func (p *Partition) IsKey() bool { return p.NumClasses() == 0 }

// Product computes π_{X∪Y} = π_X · π_Y, the TANE refinement step: rows
// are in the same product class iff they are in the same class in both
// operands. Both operands must partition the same relation. The only
// allocations are the result's two backing arrays; every intermediate
// lives in a pooled arena.
//
// This is the classic TANE linear product, O(||π_p|| + ||π_q||): a
// relation-sized probe array maps rows to their class in p, then each
// class of q is split by probe value with counting arrays. A final
// counting pass over the first-row range restores canonical class order
// without sorting.
func (p *Partition) Product(q *Partition) *Partition {
	out := &Partition{n: p.n}
	pk, qk := p.NumClasses(), q.NumClasses()
	if pk == 0 || qk == 0 {
		// No row pair agrees on both operands: all product classes are
		// singletons and |π| = n.
		out.card = p.n
		return out
	}
	s := getScratch()
	defer putScratch(s)
	s.ensureProduct(p.n, pk)

	// 1. Probe: row → class index in p, -1 elsewhere (the arena keeps the
	// array at -1 between calls).
	for ci := 0; ci < pk; ci++ {
		for _, row := range p.Class(ci) {
			s.probe[row] = int32(ci)
		}
	}

	// 2. Split every class of q by probe value into the staging CSR.
	// Within one q-class, buckets are reserved in first-touch order and
	// rows arrive ascending, so each staged class is ascending with
	// first-row-ordered classes per q-class; global order is restored in
	// step 4.
	stagedRows := s.stageRows[:0]
	stagedOffs := s.stageOffs[:0]
	for qi := 0; qi < qk; qi++ {
		class := q.Class(qi)
		touched := s.touched[:0]
		for _, row := range class {
			pc := s.probe[row]
			if pc < 0 {
				continue
			}
			if s.cnt[pc] == 0 {
				touched = append(touched, pc)
			}
			s.cnt[pc]++
		}
		for _, pc := range touched {
			if s.cnt[pc] > 1 {
				stagedOffs = append(stagedOffs, int32(len(stagedRows)))
				s.pos[pc] = int32(len(stagedRows))
				stagedRows = stagedRows[:len(stagedRows)+int(s.cnt[pc])]
			} else {
				s.pos[pc] = -1
			}
		}
		for _, row := range class {
			pc := s.probe[row]
			if pc < 0 || s.pos[pc] < 0 {
				continue
			}
			stagedRows[s.pos[pc]] = row
			s.pos[pc]++
		}
		for _, pc := range touched {
			s.cnt[pc] = 0
		}
	}

	// 3. Reset the probe for the next call (cheaper than clearing n slots:
	// only p's covered rows were written).
	for ci := 0; ci < pk; ci++ {
		for _, row := range p.Class(ci) {
			s.probe[row] = -1
		}
	}
	return p.finishProduct(out, stagedRows, stagedOffs, s)
}

// finishProduct turns the staged CSR (classes ordered per q-class, rows
// ascending within each class) into the canonical product partition:
// cardinality from the covered-row identity, then classes emitted in
// first-row order.
func (p *Partition) finishProduct(out *Partition, stagedRows, stagedOffs []int32, s *scratch) *Partition {
	k := len(stagedOffs)
	covered := len(stagedRows)
	// Distinct values of X∪Y = singletons + stripped classes. Rows covered
	// by ≥2-classes contribute one value per class; all other rows are
	// singletons in the product.
	out.card = p.n - covered + k
	if k == 0 {
		return out
	}
	out.rows = make([]int32, covered)
	out.offsets = make([]int32, k+1)

	// 4. Emit in canonical first-row order. The staging order is already
	// canonical whenever q-classes do not interleave (common when q is a
	// refinement step of a sorted build); otherwise a counting pass over
	// the [min,max] first-row range recovers the order in linear time.
	sorted := true
	for i := 1; i < k; i++ {
		if stagedRows[stagedOffs[i]] < stagedRows[stagedOffs[i-1]] {
			sorted = false
			break
		}
	}
	if sorted {
		copy(out.rows, stagedRows)
		copy(out.offsets, stagedOffs)
		out.offsets[k] = int32(covered)
		return out
	}
	minFirst, maxFirst := int32(math.MaxInt32), int32(-1)
	for ci := 0; ci < k; ci++ {
		first := stagedRows[stagedOffs[ci]]
		s.order[first] = int32(ci + 1)
		if first < minFirst {
			minFirst = first
		}
		if first > maxFirst {
			maxFirst = first
		}
	}
	pos, oc := int32(0), 0
	for row := minFirst; row <= maxFirst; row++ {
		ci := s.order[row]
		if ci == 0 {
			continue
		}
		s.order[row] = 0 // reset as we consume
		lo := stagedOffs[ci-1]
		hi := int32(covered)
		if int(ci) < k {
			hi = stagedOffs[ci]
		}
		out.offsets[oc] = pos
		copy(out.rows[pos:pos+(hi-lo)], stagedRows[lo:hi])
		pos += hi - lo
		oc++
	}
	out.offsets[k] = int32(covered)
	return out
}

// Refines reports whether π_X refines π_{X∪A}; by TANE's key lemma the FD
// X→A holds iff |π_X| = |π_{X∪A}|, equivalently e(X) = e(X∪A).
func Refines(px, pxa *Partition) bool {
	return px.card == pxa.card
}

// G3 computes the g3 error of the FD X→A from π_X and the codes of column
// A: the minimum fraction of rows to delete so the FD holds exactly
// (paper §2.3.1). For each class of π_X, all rows except those with the
// majority A-value must go. Counting runs over a pooled arena array
// indexed by code — no hash map, no per-class allocation.
func (p *Partition) G3(codesA []int) float64 {
	if len(p.rows) == 0 {
		return 0
	}
	s := getScratch()
	defer putScratch(s)
	violating := 0
	for ci := 0; ci < p.NumClasses(); ci++ {
		class := p.Class(ci)
		best := int32(0)
		for _, row := range class {
			c := s.count(codesA[row])
			if c > best {
				best = c
			}
		}
		violating += len(class) - int(best)
		s.resetCounts(codesA, class)
	}
	return float64(violating) / float64(p.n)
}

// ViolatingPairs enumerates, for the FD X→A, up to limit pairs of rows
// that agree on X but disagree on A (limit ≤ 0 means no limit). Pairs are
// reported with the smaller row first, in class order then (i, j)
// lexicographic order within a class.
//
// Each class is first grouped by A-code with a counting pass: a class with
// a single A-value is skipped in O(|class|) instead of scanned in
// O(|class|²), which is what keeps `deptool validate -limit` linear on
// large clean classes. For mixed classes, the very first scan row already
// yields a pair (some row must carry a different code), so limited
// enumeration stops early.
func (p *Partition) ViolatingPairs(codesA []int, limit int) [][2]int {
	var out [][2]int
	s := getScratch()
	defer putScratch(s)
	for ci := 0; ci < p.NumClasses(); ci++ {
		class := p.Class(ci)
		distinct := 0
		for _, row := range class {
			if s.count(codesA[row]) == 1 {
				distinct++
			}
		}
		s.resetCounts(codesA, class)
		if distinct < 2 {
			continue
		}
		for i := 0; i < len(class); i++ {
			for j := i + 1; j < len(class); j++ {
				if codesA[class[i]] != codesA[class[j]] {
					out = append(out, [2]int{int(class[i]), int(class[j])})
					if limit > 0 && len(out) >= limit {
						return out
					}
				}
			}
		}
	}
	return out
}
