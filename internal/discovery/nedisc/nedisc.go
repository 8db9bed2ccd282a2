// Package nedisc implements neighborhood-dependency discovery after Bassée
// & Wijsen [4] (paper §3.2.3): given the target right-hand-side predicate,
// find left-hand-side neighborhood predicates with sufficient support and
// confidence. The general problem is NP-hard in the number of attributes;
// the implementation searches single- and two-attribute LHS predicates
// over data-derived candidate thresholds, which is the regime the original
// evaluation covers.
package nedisc

import (
	"context"
	"sort"

	"deptree/internal/deps/ned"
	"deptree/internal/engine"
	"deptree/internal/metric"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures NED discovery.
type Options struct {
	// RHS is the target predicate.
	RHS ned.Predicate
	// LHSCols are the candidate attributes (default: all not in RHS).
	LHSCols []int
	// MinSupport is the minimum number of agreeing pairs (default 1).
	MinSupport int
	// MinConfidence is the required confidence (default 1).
	MinConfidence float64
	// MaxThresholds caps candidate thresholds per attribute (default 6).
	MaxThresholds int
	// MaxLHS bounds the predicate width (1 or 2; default 2).
	MaxLHS int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 1
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 1
	}
	if o.MaxThresholds == 0 {
		o.MaxThresholds = 6
	}
	if o.MaxLHS == 0 {
		o.MaxLHS = 2
	}
	return o
}

// Result is an NED discovery outcome; a Partial run covers a
// deterministic prefix of the combination enumeration (singles in column
// order, then pairs in lexicographic order).
type Result struct {
	NEDs []ned.NED
	// Partial marks a run truncated by budget, cancellation or panic.
	Partial bool
	// Reason is the stable stop token; empty when complete.
	Reason string
	// Completed is the number of attribute combinations searched.
	Completed int
}

// batch is the fixed MapBudget stripe width over attribute combinations.
// Fixed so the truncation point is worker-independent.
const batch = 8

// Discover searches LHS predicates for the target RHS and returns NEDs
// meeting the support and confidence requirements. For each attribute
// combination only the loosest admissible thresholds are kept (maximal
// generality, as in P-neighborhood prediction where wider neighborhoods
// mean more usable neighbors).
func Discover(r *relation.Relation, opts Options) []ned.NED {
	return DiscoverContext(context.Background(), r, opts).NEDs
}

// DiscoverContext is Discover under a context and Options.Budget. The
// pairwise distance precompute fans out per column; the threshold search
// fans out per attribute combination. Combinations never prune each
// other, so any prefix of the combination order is a prefix of the full
// output.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	n := r.Rows()
	if n < 2 {
		return Result{}
	}
	cols := opts.LHSCols
	if cols == nil {
		inRHS := map[int]bool{}
		for _, t := range opts.RHS {
			inRHS[t.Col] = true
		}
		for c := 0; c < r.Cols(); c++ {
			if !inRHS[c] {
				cols = append(cols, c)
			}
		}
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "nedisc")
	run.SetAttr("rows", n)
	run.SetAttr("columns", len(cols))
	defer run.End()

	// Precompute pairwise distances (one pool task per column, writing to
	// its own pre-allocated slice) and RHS agreement (shared, sequential).
	preSpan := run.Child(obs.KindPhase, "pair-precompute")
	pairCount := n * (n - 1) / 2
	metrics := map[int]metric.Metric{}
	dist := map[int][]float64{}
	for _, c := range cols {
		metrics[c] = metric.ForKind(r.Schema().Attr(c).Kind)
		dist[c] = make([]float64, pairCount)
	}
	rhs := make([]bool, 0, pairCount)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rhs = append(rhs, opts.RHS.Agree(r, i, j))
		}
	}
	preErr := pool.ForEach(len(cols), func(ci int) {
		c := cols[ci]
		m := metrics[c]
		d := dist[c]
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d[k] = m.Distance(r.Value(i, c), r.Value(j, c))
				k++
			}
		}
	})
	preSpan.End()
	if preErr != nil {
		// Budget tripped before any combination was searched: the
		// deterministic empty prefix.
		return Result{Partial: true, Reason: engine.Reason(preErr)}
	}
	thresholds := map[int][]float64{}
	for _, c := range cols {
		thresholds[c] = candidateThresholds(dist[c], opts.MaxThresholds)
	}
	admissible := func(terms []ned.Term) (int, float64) {
		support, good := 0, 0
		for k := range rhs {
			ok := true
			for _, t := range terms {
				if !(dist[t.Col][k] <= t.Threshold) {
					ok = false
					break
				}
			}
			if ok {
				support++
				if rhs[k] {
					good++
				}
			}
		}
		if support == 0 {
			return 0, 1
		}
		return support, float64(good) / float64(support)
	}
	// maximal returns the loosest admissible threshold combination for one
	// attribute combination, or ok=false.
	maximal := func(combCols []int) ([]ned.Term, bool) {
		lists := make([][]float64, len(combCols))
		for i, c := range combCols {
			lists[i] = thresholds[c]
		}
		type combo struct {
			ts    []float64
			total float64
		}
		var combos []combo
		var build func(prefix []float64, depth int)
		build = func(prefix []float64, depth int) {
			if depth == len(lists) {
				total := 0.0
				for _, t := range prefix {
					total += t
				}
				combos = append(combos, combo{ts: append([]float64(nil), prefix...), total: total})
				return
			}
			for _, t := range lists[depth] {
				build(append(prefix, t), depth+1)
			}
		}
		build(nil, 0)
		sort.Slice(combos, func(a, b int) bool { return combos[a].total > combos[b].total })
		for _, cb := range combos {
			terms := make([]ned.Term, len(combCols))
			for i, c := range combCols {
				terms[i] = ned.Term{Col: c, Metric: metrics[c], Threshold: cb.ts[i]}
			}
			if support, conf := admissible(terms); support >= opts.MinSupport && conf >= opts.MinConfidence {
				return terms, true
			}
		}
		return nil, false
	}
	// Enumerate combinations in the sequential order: singles, then pairs.
	var cands [][]int
	for _, c := range cols {
		if len(thresholds[c]) > 0 {
			cands = append(cands, []int{c})
		}
	}
	if opts.MaxLHS >= 2 {
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				if len(thresholds[cols[i]]) > 0 && len(thresholds[cols[j]]) > 0 {
					cands = append(cands, []int{cols[i], cols[j]})
				}
			}
		}
	}
	run.SetAttr("candidates", len(cands))
	type hit struct {
		terms []ned.Term
		ok    bool
	}
	searchSpan := run.Child(obs.KindPhase, "threshold-search")
	hits, done, err := engine.MapBudget(pool, len(cands), batch, func(i int) hit {
		terms, ok := maximal(cands[i])
		return hit{terms: terms, ok: ok}
	})
	searchSpan.SetAttr("completed", done)
	searchSpan.End()
	reg.Counter("nedisc.candidates.checked").Add(int64(done))

	var out []ned.NED
	for i := 0; i < done; i++ {
		if hits[i].ok {
			out = append(out, ned.NED{LHS: hits[i].terms, RHS: opts.RHS, Schema: r.Schema()})
		}
	}
	reg.Counter("nedisc.neds.valid").Add(int64(len(out)))
	res := Result{NEDs: out, Completed: done}
	if err != nil {
		res.Partial = true
		res.Reason = engine.Reason(err)
		run.SetAttr("stop", res.Reason)
	}
	return res
}

func candidateThresholds(dist []float64, k int) []float64 {
	clean := make([]float64, 0, len(dist))
	for _, d := range dist {
		if d == d {
			clean = append(clean, d)
		}
	}
	if len(clean) == 0 {
		return nil
	}
	sort.Float64s(clean)
	seen := map[float64]bool{}
	var out []float64
	for i := 0; i < k; i++ {
		div := k - 1
		if div < 1 {
			div = 1
		}
		v := clean[i*(len(clean)-1)/div]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}
