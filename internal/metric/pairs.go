package metric

import (
	"math"
	"sort"

	"deptree/internal/engine"
	"deptree/internal/relation"
)

// The pair kernel of the similarity branch (MD, DD, NED, CD). Their
// measures are sums over unordered tuple pairs of predicates on metric
// distances, and a distance depends only on the two cells. So the kernel
// computes one distance per pair of value classes (Table), visits each
// pair of distinct tuples once with the number of row pairs it stands for
// (Pairs), and searches thresholds over one such walk (Loosest). All of
// them poll the pool every pollStride steps and stop through
// engine.Abort, so they must run inside a task of that pool; a nil pool
// runs them unpolled.

// pollStride is the number of distances or tuple pairs between two polls
// of the pool.
const pollStride = 1024

// poller counts kernel steps and unwinds the calling task once the pool
// has stopped.
type poller struct {
	pool *engine.Pool
	left int
}

func (p *poller) tick() {
	if p.left--; p.left > 0 {
		return
	}
	p.left = pollStride
	if p.pool != nil {
		if err := p.pool.Err(); err != nil {
			engine.Abort(err)
		}
	}
}

// Table is a metric's distance between every two value classes of one or
// two columns. Cells are classed by relation.Dict, one dictionary over
// every listed column, so a two-column table compares values across its
// columns. Each class is represented by its first cell, so the metric
// must be symmetric and depend only on the class (every Metric of this
// package is). The diagonal is computed, never assumed 0: a null or NaN
// cell is not at distance 0 from itself under most metrics. Memory is one
// float64 per unordered pair of classes, k(k+1)/2 for k classes.
type Table struct {
	cols  []int
	codes [][]int   // codes[k][row]: the class of the row's cell in cols[k]
	null  int       // the null class, or -1
	off   []int     // off[a]: the index of (a, a) in dist
	dist  []float64 // dist[off[a]+b-a] = d(a's first cell, b's first cell) for a ≤ b
}

// NewTable computes m's distance table over the listed columns of r.
func NewTable(pool *engine.Pool, r *relation.Relation, m Metric, cols ...int) *Table {
	t := &Table{cols: cols, codes: make([][]int, len(cols)), null: -1}
	var dict relation.Dict
	var vals []relation.Value
	for k, c := range cols {
		codes := make([]int, r.Rows())
		for row, v := range r.Column(c) {
			code := dict.Code(v)
			if code == len(vals) {
				vals = append(vals, v)
				if v.IsNull() {
					t.null = code
				}
			}
			codes[row] = code
		}
		t.codes[k] = codes
	}
	n := len(vals)
	t.off = make([]int, n)
	t.dist = make([]float64, n*(n+1)/2)
	p := poller{pool: pool}
	i := 0
	for a := range vals {
		t.off[a] = i
		for b := a; b < n; b++ {
			p.tick()
			t.dist[i] = m.Distance(vals[a], vals[b])
			i++
		}
	}
	return t
}

// At returns the distance between classes a and b.
func (t *Table) At(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return t.dist[t.off[a]+b-a]
}

// Rows returns the distance between rows i and j on the table's first
// column.
func (t *Table) Rows(i, j int) float64 {
	return t.At(t.codes[0][i], t.codes[0][j])
}

// Classes returns the class of every row's cell in column col, one of the
// table's columns. Callers must not modify it.
func (t *Table) Classes(col int) []int {
	for k, c := range t.cols {
		if c == col {
			return t.codes[k]
		}
	}
	panic("metric: column not in table")
}

// Null reports whether class c is the null class.
func (t *Table) Null(c int) bool { return c == t.null }

// Thresholds is the data-derived candidate threshold set of DD and NED
// discovery: sort the distances of all unordered row pairs on the table's
// first column, drop NaNs, and take the values at k evenly spaced ranks,
// deduplicated and ascending. A class pair stands for cnt(a)·cnt(b) row
// pairs, and a class with itself for cnt(a)·(cnt(a)−1)/2, so the ranks
// are found by radix selection over the table, one byte of the float bits
// per pass from the top, without materializing the sorted row-pair
// distances. Distances are ≥ 0 (the Metric contract), so their bits order
// as they do. A rank is settled early once every distance in its bucket
// is the same; small integer distances settle in two passes.
func (t *Table) Thresholds(pool *engine.Pool, k int) []float64 {
	if k <= 0 {
		return nil
	}
	n := len(t.off)
	cnt := make([]int64, n)
	for _, c := range t.codes[0] {
		cnt[c]++
	}
	type bucket struct {
		w      int64
		lo, hi uint64
	}
	// rank[i] is the i-th target rank and key[i] its bits found so far.
	// Unsettled targets whose bits above the current byte agree share
	// the histogram of the first of them, their owner.
	rank := make([]int64, k)
	key := make([]uint64, k)
	settled := make([]bool, k)
	hist := make([][256]bucket, k)
	owner := make([]int, k)
	p := poller{pool: pool}
	for shift := 56; shift >= 0; shift -= 8 {
		var owners []int
		for i := range key {
			if owner[i] = -1; settled[i] {
				continue
			}
			for _, j := range owners {
				if key[j]>>shift>>8 == key[i]>>shift>>8 {
					owner[i] = j
				}
			}
			if owner[i] < 0 {
				owner[i] = i
				owners = append(owners, i)
				for b := range hist[i] {
					hist[i][b] = bucket{lo: math.MaxUint64}
				}
			}
		}
		if len(owners) == 0 {
			break
		}
		var total int64
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				p.tick()
				w := cnt[a] * cnt[b]
				if a == b {
					w = cnt[a] * (cnt[a] - 1) / 2
				}
				d := t.dist[t.off[a]+b-a]
				if w == 0 || d != d {
					continue
				}
				bits := math.Float64bits(math.Abs(d))
				total += w
				for _, j := range owners {
					if bits>>shift>>8 == key[j]>>shift>>8 {
						h := &hist[j][bits>>shift&0xff]
						h.w, h.lo, h.hi = h.w+w, min(h.lo, bits), max(h.hi, bits)
						break
					}
				}
			}
		}
		if shift == 56 {
			// The first pass sees every distance under one owner.
			if total == 0 {
				return nil
			}
			for i := range rank {
				rank[i] = int64(i) * (total - 1) / int64(max(1, k-1))
			}
		}
		for i := range key {
			if settled[i] {
				continue
			}
			h, b := &hist[owner[i]], 0
			for ; rank[i] >= h[b].w; b++ {
				rank[i] -= h[b].w
			}
			key[i] |= uint64(b) << shift
			if h[b].lo == h[b].hi {
				key[i], settled[i] = h[b].lo, true
			}
		}
	}
	var out []float64
	for _, bits := range key {
		if v := math.Float64frombits(bits); len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Pairs calls fn once for every unordered pair of distinct tuples of r
// over cols (Relation.GroupCodes), with a representative row of each
// tuple and the number of row pairs the call stands for: cnt(a)·cnt(b)
// for two tuples. A tuple held by two or more rows is also paired with
// itself (a == b), standing for its cnt(a)·(cnt(a)−1)/2 row pairs. A
// measure summed over those weights equals the same measure summed over
// all row pairs i < j whenever its predicate depends only on the cells of
// cols.
func Pairs(pool *engine.Pool, r *relation.Relation, cols []int, fn func(a, b int, w int64)) {
	codes, card := r.GroupCodes(cols)
	rep := make([]int, card)
	cnt := make([]int64, card)
	for row, g := range codes {
		if cnt[g] == 0 {
			rep[g] = row
		}
		cnt[g]++
	}
	p := poller{pool: pool}
	for g := range rep {
		p.tick()
		if c := cnt[g]; c > 1 {
			fn(rep[g], rep[g], c*(c-1)/2)
		}
		for h := g + 1; h < card; h++ {
			p.tick()
			fn(rep[g], rep[h], cnt[g]*cnt[h])
		}
	}
}

// Loosest is the threshold search of MD, DD and NED discovery. tabs are
// the LHS columns' tables and ts[k] the ascending candidate thresholds of
// tabs[k]. One walk over the distinct tuple pairs of the LHS columns and
// rhsCols files every row pair under the tightest threshold of each
// column that it falls within, and counts the pairs for which rhs holds.
// The threshold combinations, listed lexicographically and sorted by
// descending sum with sort.Slice, are then tried in turn, each judged by
// ok on its support (the pairs within every threshold) and on how many of
// those satisfy rhs. Loosest returns the first combination ok accepts, or
// nil.
func Loosest(pool *engine.Pool, r *relation.Relation, tabs []*Table, ts [][]float64, rhsCols []int,
	rhs func(a, b int) bool, ok func(support, good int64) bool) []float64 {
	size := 1
	cols := append([]int(nil), rhsCols...)
	for k, t := range tabs {
		size *= len(ts[k])
		cols = append(cols, t.cols[0])
	}
	support := make([]int64, size)
	good := make([]int64, size)
	Pairs(pool, r, cols, func(a, b int, w int64) {
		cell := 0
		for k, t := range tabs {
			d, i := t.Rows(a, b), 0
			for i < len(ts[k]) && !(d <= ts[k][i]) { // NaN fails
				i++
			}
			if i == len(ts[k]) {
				return
			}
			cell = cell*len(ts[k]) + i
		}
		support[cell] += w
		if rhs(a, b) {
			good[cell] += w
		}
	})
	type combo struct {
		idx   []int
		total float64
	}
	combos := []combo{{}}
	for k := range tabs {
		var next []combo
		for _, c := range combos {
			for i, t := range ts[k] {
				next = append(next, combo{append(append([]int(nil), c.idx...), i), c.total + t})
			}
		}
		combos = next
	}
	sort.Slice(combos, func(a, b int) bool { return combos[a].total > combos[b].total })
	for _, c := range combos {
		var s, g int64
		for cell := range support {
			in := true
			for k, rest := len(tabs)-1, cell; k >= 0; k-- {
				in = in && rest%len(ts[k]) <= c.idx[k]
				rest /= len(ts[k])
			}
			if in {
				s, g = s+support[cell], g+good[cell]
			}
		}
		if ok(s, g) {
			out := make([]float64, len(tabs))
			for k, i := range c.idx {
				out[k] = ts[k][i]
			}
			return out
		}
	}
	return nil
}
