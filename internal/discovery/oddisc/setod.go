package oddisc

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"deptree/internal/deps/od"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Set-based OD checking through order compatibility, after the
// Godfrey/Golab/Kargar/Srivastava errata note on discovering ODs via
// order compatibility: a single-attribute OD A≤ → B≤ holds iff the FD
// A → B holds (rows equal on A are equal on B — both orders of an A-tie
// are LHS-ordered, so the RHS must be ordered both ways, i.e. equal) AND
// A≤ ~ B≤ are order compatible (B never decreases as A increases). The
// two halves factor over one ascending sort per COLUMN instead of one
// sort per CANDIDATE: colOrder precomputes each column's sorted row
// order and dense Compare-ranks once, and every candidate check is then
// a linear scan over the LHS column's sorted order.
//
// Two things keep the per-candidate cost at or below the pairwise
// core's. First, every check opens with the same O(n) neighbor
// fail-fast pre-pass od.Holds uses — a violating adjacent pair decides
// the candidate without touching any column order, and invalid ODs
// almost always fail between neighbors. Second, column orders are built
// lazily (one sync.Once per column), so a column only pays its sort
// once some candidate survives the pre-pass on it; refuted-everywhere
// columns are never sorted at all.
//
// The decomposition is only sound when Compare is a total preorder on
// both columns; a NaN breaks totality (Compare treats it as equal to
// every numeric), so candidates touching a non-total column fall back to
// the exact od.Holds pair logic — the same predicate, decided the slow
// way. Discovery output is therefore identical to a pairwise od.Holds
// check of every candidate, the test-only oracle the differential and
// fuzz suites pin it against.

// colOrder is one column's precomputed ordering: rows sorted ascending
// by Compare, each row's dense rank in that order (Compare-equal values
// share a rank), and whether Compare is total on the column.
type colOrder struct {
	sorted []int32
	rank   []int32
	total  bool
}

// numKey maps a numeric-or-null Value to a uint64 whose unsigned order
// equals Compare order: nulls first (key 0), then floats via the
// order-preserving bits trick (non-negative → bits with the sign bit
// set; negative → complemented bits). Sound only on NaN-free columns —
// the totality scan rejects those before any key is taken — and -0 is
// normalized to +0 so key equality coincides with Compare equality.
func numKey(v relation.Value) uint64 {
	if v.IsNull() {
		return 0
	}
	f := v.Num()
	if f == 0 {
		f = 0 // collapse -0 onto +0; Compare treats them as equal
	}
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// buildColOrder sorts one column and assigns dense ascending ranks.
// Numeric columns sort by uint64 keys (numKey) instead of repeated
// interface Compare calls — at a million rows that is the difference
// between a cheap integer sort and tens of millions of Value.Compare
// dispatches. Non-numeric columns keep the generic Compare sort.
func buildColOrder(r *relation.Relation, col int) *colOrder {
	n := r.Rows()
	vals := r.Column(col)
	co := &colOrder{sorted: make([]int32, n), rank: make([]int32, n), total: true}
	numeric := true
	for row := 0; row < n; row++ {
		co.sorted[row] = int32(row)
		v := vals[row]
		if v.IsNull() {
			continue
		}
		if !v.IsNumeric() {
			numeric = false
		} else if math.IsNaN(v.Num()) {
			co.total = false
		}
	}
	if !co.total {
		return co
	}
	if numeric {
		keys := make([]uint64, n)
		for row := 0; row < n; row++ {
			keys[row] = numKey(vals[row])
		}
		sort.Slice(co.sorted, func(a, b int) bool {
			return keys[co.sorted[a]] < keys[co.sorted[b]]
		})
		rank := int32(0)
		for i, row := range co.sorted {
			if i > 0 && keys[row] != keys[co.sorted[i-1]] {
				rank++
			}
			co.rank[row] = rank
		}
		return co
	}
	sort.SliceStable(co.sorted, func(a, b int) bool {
		return vals[co.sorted[a]].Compare(vals[co.sorted[b]]) < 0
	})
	rank := int32(0)
	for i, row := range co.sorted {
		if i > 0 && vals[row].Compare(vals[co.sorted[i-1]]) != 0 {
			rank++
		}
		co.rank[row] = rank
	}
	return co
}

// colOrders hands out per-column orderings on demand. Each column is
// built at most once (sync.Once), concurrently safe because candidate
// checks fan out across engine workers and two checks may race to the
// same column. Budget semantics are unchanged from the pairwise core:
// budget tasks are candidate checks, and a build simply rides inside
// the first check that needs its column.
type colOrders struct {
	r     *relation.Relation
	reg   *obs.Registry
	slots map[int]*colOrderSlot
	built atomic.Int64
}

type colOrderSlot struct {
	once sync.Once
	co   *colOrder
}

// newColOrders prepares lazy slots for the candidate columns. reg may
// be nil; when present each build's latency lands in the
// oddisc.setod.prep.seconds histogram.
func newColOrders(r *relation.Relation, cols []int, reg *obs.Registry) *colOrders {
	slots := make(map[int]*colOrderSlot, len(cols))
	for _, c := range cols {
		slots[c] = &colOrderSlot{}
	}
	return &colOrders{r: r, reg: reg, slots: slots}
}

// get returns the column's ordering, building it on first use. Columns
// outside the prepared candidate set return nil (callers fall back to
// the exact pair logic).
func (cs *colOrders) get(col int) *colOrder {
	s := cs.slots[col]
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		stop := cs.reg.Histogram("oddisc.setod.prep.seconds").Start()
		s.co = buildColOrder(cs.r, col)
		stop()
		cs.built.Add(1)
	})
	return s.co
}

// rhsViolated reports whether an RHS Compare outcome violates the RHS
// mark for an LHS-ordered pair: ascending marks forbid cmp > 0,
// descending marks forbid cmp < 0 (mirroring od.Holds' pair logic).
func rhsViolated(cmp int, desc bool) bool {
	if desc {
		return cmp < 0
	}
	return cmp > 0
}

// neighborViolation is the O(n) fail-fast pre-pass for an asc-LHS
// single-attribute candidate: scan consecutive rows in both
// orientations and report a witnessed violating pair. Exact regardless
// of Compare totality — a witnessed violation is a violation — so it
// runs before the totality gate.
func neighborViolation(av, bv []relation.Value, desc bool) bool {
	for i := 0; i+1 < len(av); i++ {
		ca := av[i].Compare(av[i+1])
		cb := bv[i].Compare(bv[i+1])
		if ca <= 0 && rhsViolated(cb, desc) {
			return true
		}
		if ca >= 0 && rhsViolated(-cb, desc) {
			return true
		}
	}
	return false
}

// setHolds decides one 1×1 asc-LHS candidate with the set-based
// machinery: optionally the neighbor pre-pass, then the
// order-compatibility scan over lazily built column orders, with the
// exact od.Holds pair logic as the fallback when a NaN broke totality.
// Discovery enables the pre-pass (candidates are mostly invalid, and
// invalid ones usually fail between neighbors); verification disables
// it (sample-mined candidates are mostly valid, so the pre-pass would
// be a second O(n) scan on top of the rank scan that decides them).
// fallbacks may be nil.
func setHolds(r *relation.Relation, o od.OD, orders *colOrders, fallbacks *obs.Counter, prepass bool) bool {
	l, rm := o.LHS[0], o.RHS[0]
	if prepass && neighborViolation(r.Column(l.Col), r.Column(rm.Col), rm.Desc) {
		return false
	}
	a, b := orders.get(l.Col), orders.get(rm.Col)
	if a == nil || b == nil || !a.total || !b.total {
		fallbacks.Inc()
		return o.Holds(r)
	}
	return orderCompatible(a, b, rm.Desc)
}

// Verifier decides candidate ODs against one fixed relation using the
// set-based machinery. Column orders are built lazily and memoized, so
// a batch of Holds calls pays one sort per touched column; the lazy
// slots are sync.Once-guarded, making a Verifier safe for concurrent
// use — the sample-then-verify driver fans verification out across
// engine workers.
type Verifier struct {
	r      *relation.Relation
	orders *colOrders
}

// NewVerifier prepares lazy column orders for every non-string column
// of r (the same candidate space Discover searches by default).
func NewVerifier(r *relation.Relation) *Verifier {
	var cols []int
	for c := 0; c < r.Cols(); c++ {
		if r.Schema().Attr(c).Kind != relation.KindString {
			cols = append(cols, c)
		}
	}
	return &Verifier{r: r, orders: newColOrders(r, cols, nil)}
}

// Holds decides one candidate OD against the verifier's relation.
func (v *Verifier) Holds(o od.OD) bool {
	if len(o.LHS) == 1 && len(o.RHS) == 1 && !o.LHS[0].Desc {
		return setHolds(v.r, o, v.orders, nil, false)
	}
	return o.Holds(v.r)
}

// orderCompatible decides A≤ → B≤ (desc=false) or A≤ → B≥ (desc=true)
// from the precomputed orders in one linear scan over a's sorted rows:
// within each equal-A group the B-rank must be constant (the FD half),
// and across groups the B-rank must be monotone in the marked direction
// (the order-compatibility half). Transitivity of the total preorder
// extends the adjacent-group check to all pairs.
func orderCompatible(a, b *colOrder, desc bool) bool {
	n := len(a.sorted)
	var prevB int32
	for i := 0; i < n; {
		row := a.sorted[i]
		ar, gb := a.rank[row], b.rank[row]
		j := i + 1
		for ; j < n; j++ {
			next := a.sorted[j]
			if a.rank[next] != ar {
				break
			}
			if b.rank[next] != gb {
				return false
			}
		}
		if i > 0 {
			if desc {
				if gb > prevB {
					return false
				}
			} else if gb < prevB {
				return false
			}
		}
		prevB = gb
		i = j
	}
	return true
}
