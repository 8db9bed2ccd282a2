package oddisc

import (
	"context"
	"math"
	"sort"

	"deptree/internal/deps/od"
	"deptree/internal/engine"
	"deptree/internal/relation"
)

// Incremental OD revalidation under appends. Validity of an OD is
// anti-monotone in the rows: a violating pair survives every append, so
// the valid set only SHRINKS as batches arrive and no re-discovery is
// ever needed — the maintenance problem is exactly "which held ODs did
// this batch break". Stream answers it locally: each column keeps its
// rows sorted by the order-preserving numKey, a batch folds in by one
// O(n+delta) merge, and because the old rows keep their relative order,
// every adjacent pair of OLD rows in the new order was already adjacent
// (and already checked) before. Only adjacent pairs involving an
// appended row can witness a fresh violation, so each held OD is
// re-decided by scanning those pairs alone — the order-compatibility
// neighbor check restricted to rows adjacent to the inserted ranks.
// Transitivity of the total preorder extends the adjacent-pair check to
// all pairs, exactly as in orderCompatible.
//
// The decomposition needs numKey order = Compare order, which a NaN
// breaks; a column that has seen a NaN is marked non-total and every
// held OD touching it falls back to the exact od.Holds pair logic.

// colStream is one column's incrementally maintained ordering.
type colStream struct {
	keys   []uint64 // per row, numKey
	sorted []int32  // rows ascending by key; stale once total is false
	total  bool
}

// Stream maintains the full valid OD set of one relation under appends.
// It is created over the relation's current rows (running a from-scratch
// discovery) and then advanced batch by batch: Ingest folds appended
// rows into the per-column orders, Revalidate drops the held ODs the
// uncommitted rows broke. The two are split so a cancelled Revalidate
// can be retried — Ingest is cheap and deterministic, and Revalidate
// does not commit on cancellation. Not safe for concurrent use.
type Stream struct {
	r       *relation.Relation
	cols    []int
	streams map[int]*colStream
	held    []od.OD // full valid set, sorted by String
	// dirtyRow is the first row no committed Revalidate has covered
	// (-1 when clean).
	dirtyRow int
}

// NewStream runs from-scratch discovery over r's current rows and wraps
// the result for incremental maintenance. A budget-truncated discovery
// returns (nil, res): a partial valid set cannot seed a maintenance
// invariant, so the caller must retry with a workable budget.
func NewStream(ctx context.Context, r *relation.Relation, opts Options) (*Stream, Result) {
	res := DiscoverContext(ctx, r, opts)
	if res.Partial {
		return nil, res
	}
	cols := opts.Columns
	if cols == nil {
		for c := 0; c < r.Cols(); c++ {
			if r.Schema().Attr(c).Kind != relation.KindString {
				cols = append(cols, c)
			}
		}
	}
	s := &Stream{r: r, cols: cols, streams: make(map[int]*colStream, len(cols)), held: res.ODs, dirtyRow: -1}
	for _, c := range cols {
		s.streams[c] = buildColStream(r, c, 0, nil)
	}
	return s, res
}

// Held returns the current full valid OD set (not a minimal cover),
// sorted by String. Callers must not modify it.
func (s *Stream) Held() []od.OD { return s.held }

// buildColStream extends (or creates) a column's stream with rows
// [oldRows, r.Rows()): keys for the delta, then one merge pass.
func buildColStream(r *relation.Relation, col, oldRows int, cs *colStream) *colStream {
	n := r.Rows()
	if cs == nil {
		cs = &colStream{total: true}
	}
	vals := r.Column(col)
	for row := oldRows; row < n; row++ {
		v := vals[row]
		if v.IsNumeric() && math.IsNaN(v.Num()) {
			cs.total = false
		}
		cs.keys = append(cs.keys, numKey(v))
	}
	if !cs.total {
		return cs // sorted is stale and unused behind the totality gate
	}
	delta := make([]int32, 0, n-oldRows)
	for row := oldRows; row < n; row++ {
		delta = append(delta, int32(row))
	}
	sort.Slice(delta, func(a, b int) bool {
		ka, kb := cs.keys[delta[a]], cs.keys[delta[b]]
		if ka != kb {
			return ka < kb
		}
		return delta[a] < delta[b]
	})
	merged := make([]int32, 0, n)
	i, j := 0, 0
	for i < len(cs.sorted) && j < len(delta) {
		if cs.keys[cs.sorted[i]] <= cs.keys[delta[j]] {
			merged = append(merged, cs.sorted[i])
			i++
		} else {
			merged = append(merged, delta[j])
			j++
		}
	}
	merged = append(merged, cs.sorted[i:]...)
	merged = append(merged, delta[j:]...)
	cs.sorted = merged
	return cs
}

// Ingest folds rows [oldRows, r.Rows()) into the per-column orders and
// marks them dirty for the next Revalidate. It never fails and is not
// cancellable (one merge per column).
func (s *Stream) Ingest(oldRows int) {
	if oldRows >= s.r.Rows() {
		return
	}
	for _, c := range s.cols {
		s.streams[c] = buildColStream(s.r, c, oldRows, s.streams[c])
	}
	if s.dirtyRow < 0 || oldRows < s.dirtyRow {
		s.dirtyRow = oldRows
	}
}

// Revalidate re-decides every held OD against the ingested rows and
// drops the broken ones, returning the removed ODs. On cancellation it
// commits nothing and reports Partial with the engine's stop token; the
// rows stay dirty and a retry re-checks from the same state.
func (s *Stream) Revalidate(ctx context.Context) (removed []od.OD, res Result) {
	if s.dirtyRow < 0 {
		return nil, Result{ODs: s.held, Completed: len(s.held)}
	}
	// Adjacent pairs involving a dirty row, per LHS column, computed
	// lazily: only columns appearing as a held LHS pay the scan.
	pairIdx := make(map[int][]int32)
	pairsFor := func(col int) []int32 {
		if ps, ok := pairIdx[col]; ok {
			return ps
		}
		cs := s.streams[col]
		var ps []int32
		for i := 0; i+1 < len(cs.sorted); i++ {
			if int(cs.sorted[i]) >= s.dirtyRow || int(cs.sorted[i+1]) >= s.dirtyRow {
				ps = append(ps, int32(i))
			}
		}
		pairIdx[col] = ps
		return ps
	}
	kept := make([]od.OD, 0, len(s.held))
	for done, o := range s.held {
		if err := ctx.Err(); err != nil {
			return nil, Result{ODs: s.held, Stop: engine.StopAt(nil, err), Completed: done}
		}
		if s.survives(o, pairsFor) {
			kept = append(kept, o)
		} else {
			removed = append(removed, o)
		}
	}
	s.held = kept
	s.dirtyRow = -1
	return removed, Result{ODs: s.held, Completed: len(kept) + len(removed)}
}

// survives decides one held OD against the dirty rows: the localized
// adjacent-pair check when both columns are numKey-total, the exact pair
// logic otherwise.
func (s *Stream) survives(o od.OD, pairsFor func(col int) []int32) bool {
	a, b := s.streams[o.LHS[0].Col], s.streams[o.RHS[0].Col]
	if a == nil || b == nil || !a.total || !b.total {
		return o.Holds(s.r)
	}
	desc := o.RHS[0].Desc
	for _, i := range pairsFor(o.LHS[0].Col) {
		x, y := a.sorted[i], a.sorted[i+1]
		if a.keys[x] == a.keys[y] {
			if b.keys[x] != b.keys[y] {
				return false
			}
			continue
		}
		// x strictly precedes y on the LHS: the RHS must not regress.
		if desc {
			if b.keys[x] < b.keys[y] {
				return false
			}
		} else if b.keys[x] > b.keys[y] {
			return false
		}
	}
	return true
}
