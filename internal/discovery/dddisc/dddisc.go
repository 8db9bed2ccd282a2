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
	// Partial marks a run truncated by budget, cancellation or panic.
	Partial bool
	// Reason is the stable stop token; empty when complete.
	Reason string
	// Completed is the number of candidate attributes searched.
	Completed int
}

// batch is the fixed MapBudget stripe width: each task is one attribute's
// full O(n²) distance scan plus threshold search — heavy, so stripes stay
// narrow. Fixed so the truncation point is worker-independent.
const batch = 2

// DiscoverContext returns DDs φ[X] → φ[Y] with confidence 1 and support ≥
// MinSupport, where every LHS function is of the "similar" form A(≤
// threshold) and thresholds are maximal: raising any threshold to the next
// candidate would break the dependency or its confidence. Maximal
// thresholds make the DD most general, mirroring the minimality notion of
// [86] (a DD with looser LHS subsumes tighter ones).
//
// It runs under a context and Options.Budget. Each candidate attribute is
// one pool task computing its pairwise distances, candidate thresholds and
// maximal admissible threshold; the shared RHS compatibility vector is
// computed once up front.
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

	// Shared RHS compatibility per tuple pair, in (i,j) i<j order.
	rhsSpan := run.Child(obs.KindPhase, "rhs-compat")
	pairCount := n * (n - 1) / 2
	rhsOK := make([]bool, 0, pairCount)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rhsOK = append(rhsOK, opts.RHS.Compatible(r, i, j))
		}
	}
	rhsSpan.End()

	type hit struct {
		best float64
		ok   bool
	}
	searchSpan := run.Child(obs.KindPhase, "threshold-search")
	hits, done, err := engine.MapBudget(pool, len(cols), batch, func(k int) hit {
		c := cols[k]
		m := metric.ForKind(r.Schema().Attr(c).Kind)
		dist := make([]float64, 0, pairCount)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dist = append(dist, m.Distance(r.Value(i, c), r.Value(j, c)))
			}
		}
		h := hit{best: -1}
		for _, t := range quantileThresholds(dist, opts.MaxThresholds) {
			support, conf := evaluate(dist, t, rhsOK)
			if support >= opts.MinSupport && conf == 1 {
				if !h.ok || t > h.best {
					h.best = t
					h.ok = true
				}
			}
		}
		return h
	})
	searchSpan.SetAttr("completed", done)
	searchSpan.End()
	reg.Counter("dddisc.candidates.checked").Add(int64(done))

	var out []dd.DD
	for k := 0; k < done; k++ {
		if hits[k].ok {
			c := cols[k]
			out = append(out, dd.DD{
				LHS:    dd.Pattern{{Col: c, Metric: metric.ForKind(r.Schema().Attr(c).Kind), Op: dd.OpLe, Threshold: hits[k].best}},
				RHS:    dd.Pattern{opts.RHS},
				Schema: r.Schema(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LHS[0].Col < out[j].LHS[0].Col })
	reg.Counter("dddisc.dds.valid").Add(int64(len(out)))
	res := Result{DDs: out, Completed: done}
	if err != nil {
		res.Partial = true
		res.Reason = engine.Reason(err)
		run.SetAttr("stop", res.Reason)
	}
	return res
}

// evaluate computes support (pairs with distance ≤ t) and confidence
// (fraction of those satisfying the RHS).
func evaluate(dist []float64, t float64, rhsOK []bool) (int, float64) {
	support, good := 0, 0
	for k, d := range dist {
		if d <= t { // NaN fails
			support++
			if rhsOK[k] {
				good++
			}
		}
	}
	if support == 0 {
		return 0, 1
	}
	return support, float64(good) / float64(support)
}

// quantileThresholds extracts up to k distinct candidate thresholds from
// the observed distances (NaNs dropped), spread across the distribution.
func quantileThresholds(dist []float64, k int) []float64 {
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
		idx := i * (len(clean) - 1) / max(1, k-1)
		v := clean[idx]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}
