// Package dddisc implements differential dependency discovery after Song &
// Chen [86],[88],[89] (paper §3.3.3): given a target RHS differential
// function, search the left-hand-side threshold space for minimal DDs with
// full confidence and sufficient support.
//
// Candidate thresholds are determined from the data in the parameter-free
// style of [88]: the observed pairwise distances on each attribute form the
// candidate set, so no distance thresholds need to be specified manually —
// the aspect the paper highlights as the key difficulty of metric
// dependencies (§1.4.2).
package dddisc

import (
	"context"
	"sort"

	"deptree/internal/deps/dd"
	"deptree/internal/engine"
	"deptree/internal/metric"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures DD discovery.
type Options struct {
	// RHS is the target differential function φ[Y].
	RHS dd.DiffFunc
	// LHSCols are the attributes considered for φ[X] (defaults to all
	// except the RHS column).
	LHSCols []int
	// MinSupport is the minimum number of pairs matching φ[X] (default 1).
	MinSupport int
	// MaxThresholds caps the candidate thresholds per attribute, taken as
	// quantiles of the observed distance distribution (default 8).
	MaxThresholds int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 1
	}
	if o.MaxThresholds == 0 {
		o.MaxThresholds = 8
	}
	return o
}

// Result is a DD discovery outcome; Partial runs cover a deterministic
// prefix of the candidate-attribute order.
type Result struct {
	DDs []dd.DD
	engine.Stop
	// Completed is the number of candidate attributes searched.
	Completed int
}

// batch is the fixed MapBudget stripe width: each task is one attribute's
// distance table, threshold pick and tuple-pair walk — heavy, so stripes
// stay narrow. Fixed so the truncation point is worker-independent.
const batch = 2

// DiscoverContext returns DDs φ[X] → φ[Y] with confidence 1 and support ≥
// MinSupport, where every LHS function is of the "similar" form A(≤
// threshold) and thresholds are maximal: raising any threshold to the next
// candidate would break the dependency or its confidence. Maximal
// thresholds make the DD most general, mirroring the minimality notion of
// [86] (a DD with looser LHS subsumes tighter ones).
//
// It runs under a context and Options.Budget. One task computes the RHS
// column's distance table; then each candidate attribute is one pool task
// computing its own table and candidate thresholds, and the loosest
// admissible one over a single walk of its tuple pairs (metric.Loosest).
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	n := r.Rows()
	if n < 2 {
		return Result{}
	}
	cols := opts.LHSCols
	if cols == nil {
		for c := 0; c < r.Cols(); c++ {
			if c != opts.RHS.Col {
				cols = append(cols, c)
			}
		}
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "dddisc")
	run.SetAttr("rows", n)
	run.SetAttr("candidates", len(cols))
	defer run.End()

	rhsSpan := run.Child(obs.KindPhase, "rhs-table")
	var rhs *metric.Table
	err := pool.ForEach(1, func(int) { rhs = metric.NewTable(pool, r, opts.RHS.Metric, opts.RHS.Col) })
	rhsSpan.End()
	if err != nil {
		return Result{Stop: engine.StopAt(run, err)}
	}

	searchSpan := run.Child(obs.KindPhase, "threshold-search")
	hits, done, err := engine.MapBudget(pool, len(cols), batch, func(k int) []float64 {
		c := cols[k]
		tab := metric.NewTable(pool, r, metric.ForKind(r.Schema().Attr(c).Kind), c)
		ts := tab.Thresholds(pool, opts.MaxThresholds)
		return metric.Loosest(pool, r, []*metric.Table{tab}, [][]float64{ts}, []int{opts.RHS.Col},
			func(a, b int) bool { return opts.RHS.Op.Eval(rhs.Rows(a, b), opts.RHS.Threshold) },
			func(support, good int64) bool { return support >= int64(opts.MinSupport) && good == support })
	})
	searchSpan.SetAttr("completed", done)
	searchSpan.End()
	reg.Counter("dddisc.candidates.checked").Add(int64(done))

	var out []dd.DD
	for k := 0; k < done; k++ {
		if hits[k] != nil {
			c := cols[k]
			out = append(out, dd.DD{
				LHS:    dd.Pattern{{Col: c, Metric: metric.ForKind(r.Schema().Attr(c).Kind), Op: dd.OpLe, Threshold: hits[k][0]}},
				RHS:    dd.Pattern{opts.RHS},
				Schema: r.Schema(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LHS[0].Col < out[j].LHS[0].Col })
	reg.Counter("dddisc.dds.valid").Add(int64(len(out)))
	return Result{DDs: out, Completed: done, Stop: engine.StopAt(run, err)}
}
