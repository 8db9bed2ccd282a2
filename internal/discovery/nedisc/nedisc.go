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
	engine.Stop
	// Completed is the number of attribute combinations searched.
	Completed int
}

// batch is the fixed MapBudget stripe width over attribute combinations.
// Fixed so the truncation point is worker-independent.
const batch = 8

// DiscoverContext searches LHS predicates for the target RHS and returns
// NEDs meeting the support and confidence requirements. For each attribute
// combination only the loosest admissible thresholds are kept (maximal
// generality, as in P-neighborhood prediction where wider neighborhoods
// mean more usable neighbors).
//
// It runs under a context and Options.Budget. The distance tables and
// candidate thresholds fan out per column (and per RHS term); the
// threshold search fans out per attribute combination, each one walk over
// its distinct tuple pairs. Combinations never prune each other, so any
// prefix of the combination order is a prefix of the full output.
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

	// One distance table per LHS column, with its candidate thresholds,
	// then one per RHS term.
	preSpan := run.Child(obs.KindPhase, "distance-tables")
	metrics := map[int]metric.Metric{}
	for _, c := range cols {
		metrics[c] = metric.ForKind(r.Schema().Attr(c).Kind)
	}
	tabs := make([]*metric.Table, len(cols)+len(opts.RHS))
	ts := make([][]float64, len(cols))
	preErr := pool.ForEach(len(tabs), func(i int) {
		if i < len(cols) {
			tabs[i] = metric.NewTable(pool, r, metrics[cols[i]], cols[i])
			ts[i] = tabs[i].Thresholds(pool, opts.MaxThresholds)
			return
		}
		t := opts.RHS[i-len(cols)]
		tabs[i] = metric.NewTable(pool, r, t.Metric, t.Col)
	})
	preSpan.End()
	if preErr != nil {
		// Budget tripped before any combination was searched: the
		// deterministic empty prefix.
		return Result{Stop: engine.StopAt(run, preErr)}
	}
	rhsTabs := tabs[len(cols):]
	var rhsCols []int
	for _, t := range opts.RHS {
		rhsCols = append(rhsCols, t.Col)
	}
	agree := func(a, b int) bool {
		for i, t := range opts.RHS {
			if !(rhsTabs[i].Rows(a, b) <= t.Threshold) { // NaN fails
				return false
			}
		}
		return true
	}
	admissible := func(support, good int64) bool {
		conf := 1.0
		if support > 0 {
			conf = float64(good) / float64(support)
		}
		return support >= int64(opts.MinSupport) && conf >= opts.MinConfidence
	}
	// maximal returns the loosest admissible terms for one combination of
	// LHS column positions, or nil.
	maximal := func(comb []int) []ned.Term {
		lhs := make([]*metric.Table, len(comb))
		lists := make([][]float64, len(comb))
		for i, k := range comb {
			lhs[i], lists[i] = tabs[k], ts[k]
		}
		best := metric.Loosest(pool, r, lhs, lists, rhsCols, agree, admissible)
		if best == nil {
			return nil
		}
		terms := make([]ned.Term, len(comb))
		for i, k := range comb {
			terms[i] = ned.Term{Col: cols[k], Metric: metrics[cols[k]], Threshold: best[i]}
		}
		return terms
	}
	// Enumerate combinations in the sequential order: singles, then pairs.
	var cands [][]int
	for k := range cols {
		if len(ts[k]) > 0 {
			cands = append(cands, []int{k})
		}
	}
	if opts.MaxLHS >= 2 {
		for i := range cols {
			for j := i + 1; j < len(cols); j++ {
				if len(ts[i]) > 0 && len(ts[j]) > 0 {
					cands = append(cands, []int{i, j})
				}
			}
		}
	}
	run.SetAttr("candidates", len(cands))
	searchSpan := run.Child(obs.KindPhase, "threshold-search")
	hits, done, err := engine.MapBudget(pool, len(cands), batch, func(i int) []ned.Term { return maximal(cands[i]) })
	searchSpan.SetAttr("completed", done)
	searchSpan.End()
	reg.Counter("nedisc.candidates.checked").Add(int64(done))

	var out []ned.NED
	for i := 0; i < done; i++ {
		if hits[i] != nil {
			out = append(out, ned.NED{LHS: hits[i], RHS: opts.RHS, Schema: r.Schema()})
		}
	}
	reg.Counter("nedisc.neds.valid").Add(int64(len(out)))
	return Result{NEDs: out, Completed: done, Stop: engine.StopAt(run, err)}
}
