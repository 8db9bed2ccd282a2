// Package mddisc implements matching dependency discovery after Song &
// Chen [85],[87] (paper §3.7.3): exact discovery of MDs meeting support
// and confidence requirements over candidate similarity thresholds, a
// statistical first-k approximation with the same interface, and relative
// candidate keys (RCKs) [90] — minimal determinant attribute sets whose MD
// meets the requirements.
package mddisc

import (
	"context"
	"slices"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps/md"
	"deptree/internal/engine"
	"deptree/internal/metric"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures MD discovery.
type Options struct {
	// RHS are the columns to identify (default: the last column — the
	// documented servable default used by `deptool discover -algo md`).
	RHS []int
	// LHSCols are the candidate determinant attributes (defaults to all
	// columns not in RHS).
	LHSCols []int
	// MinSupport is the minimum fraction of tuple pairs matching the LHS
	// (default 0.01).
	MinSupport float64
	// MinConfidence is the minimum fraction of matching pairs identified
	// on the RHS (default 0.9).
	MinConfidence float64
	// Thresholds are the candidate similarity thresholds per attribute
	// kind; default {0, 1, 2, 3} for strings, {0} for numerics.
	Thresholds []float64
	// FirstK, when > 0, evaluates support/confidence on only the first K
	// tuples — the statistical approximation of [87] with bounded relative
	// error for stationary tuple order.
	FirstK int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 0.01
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.9
	}
	if o.Thresholds == nil {
		o.Thresholds = []float64{0, 1, 2, 3}
	}
	return o
}

// Result is an MD discovery outcome. A Partial result covers a
// deterministic prefix of the candidate-attribute enumeration order.
type Result struct {
	MDs []md.MD
	engine.Stop
	// Completed is the number of candidate attributes searched.
	Completed int
}

// batch is the fixed MapBudget stripe width: candidate attributes are
// heavy units (each builds a distance table and walks the distinct tuple
// pairs), so truncation keeps per-attribute granularity. Fixed per
// algorithm so the truncation point is worker-independent.
const batch = 4

// DiscoverContext returns single-attribute-LHS MDs meeting the support
// and confidence requirements, each with the maximal admissible threshold
// (the most general matching rule), under a context and Options.Budget.
// Each candidate attribute is one pool task: its distance table, then the
// loosest admissible threshold over a single walk of its tuple pairs
// (metric.Loosest).
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	eval := r
	if opts.FirstK > 0 && opts.FirstK < r.Rows() {
		eval = r.Select(func(row int) bool { return row < opts.FirstK })
	}
	rhsCols := opts.RHS
	if rhsCols == nil && r.Cols() > 0 {
		rhsCols = []int{r.Cols() - 1}
	}
	cols := opts.LHSCols
	if cols == nil {
		rhs := map[int]bool{}
		for _, c := range rhsCols {
			rhs[c] = true
		}
		for c := 0; c < r.Cols(); c++ {
			if !rhs[c] {
				cols = append(cols, c)
			}
		}
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "mddisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("candidates", len(cols))
	defer run.End()

	ts := append([]float64(nil), opts.Thresholds...)
	sort.Float64s(ts)
	ts = slices.Compact(ts)
	n := int64(eval.Rows())
	total := float64(n * (n - 1) / 2)
	searchSpan := run.Child(obs.KindPhase, "threshold-search")
	hits, done, err := engine.MapBudget(pool, len(cols), batch, func(i int) []float64 {
		c := cols[i]
		tab := metric.NewTable(pool, eval, metric.ForKind(r.Schema().Attr(c).Kind), c)
		return metric.Loosest(pool, eval, []*metric.Table{tab}, [][]float64{ts}, rhsCols,
			func(a, b int) bool {
				for _, rc := range rhsCols {
					if !eval.Value(a, rc).Equal(eval.Value(b, rc)) {
						return false
					}
				}
				return true
			},
			func(sim, good int64) bool {
				// md.MD.SupportConfidence's measures, from the same counts.
				support, conf := 0.0, 1.0
				if sim > 0 {
					support, conf = float64(sim)/total, float64(good)/float64(sim)
				}
				return support >= opts.MinSupport && conf >= opts.MinConfidence
			})
	})
	searchSpan.SetAttr("completed", done)
	searchSpan.End()
	reg.Counter("mddisc.candidates.checked").Add(int64(done))

	var out []md.MD
	for i := 0; i < done; i++ {
		if hits[i] != nil {
			out = append(out, md.MD{
				LHS:    []md.SimAttr{{Col: cols[i], Metric: metric.ForKind(r.Schema().Attr(cols[i]).Kind), MaxDist: hits[i][0]}},
				RHS:    rhsCols,
				Schema: r.Schema(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LHS[0].Col < out[j].LHS[0].Col })
	reg.Counter("mddisc.mds.valid").Add(int64(len(out)))
	return Result{MDs: out, Completed: done, Stop: engine.StopAt(run, err)}
}

// RelativeCandidateKeys finds the minimal attribute sets X (within
// LHSCols, at equality thresholds) such that the MD X≈ → RHS⇌ meets the
// confidence requirement — the RCKs of [90] that remove redundant
// matching-rule semantics. Search is level-wise; supersets of found keys
// are pruned.
func RelativeCandidateKeys(r *relation.Relation, opts Options) []attrset.Set {
	opts = opts.withDefaults()
	cols := opts.LHSCols
	if cols == nil {
		rhs := map[int]bool{}
		for _, c := range opts.RHS {
			rhs[c] = true
		}
		for c := 0; c < r.Cols(); c++ {
			if !rhs[c] {
				cols = append(cols, c)
			}
		}
	}
	mkMD := func(x attrset.Set) md.MD {
		m := md.MD{RHS: opts.RHS, Schema: r.Schema()}
		x.Each(func(c int) {
			m.LHS = append(m.LHS, md.SimAttr{Col: c, Metric: metric.ForKind(r.Schema().Attr(c).Kind), MaxDist: 0})
		})
		return m
	}
	var keys []attrset.Set
	level := make([]attrset.Set, 0, len(cols))
	for _, c := range cols {
		level = append(level, attrset.Single(c))
	}
	for len(level) > 0 {
		var next []attrset.Set
		for _, x := range level {
			covered := false
			for _, k := range keys {
				if k.SubsetOf(x) {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			_, conf := mkMD(x).SupportConfidence(r)
			if conf >= opts.MinConfidence {
				keys = append(keys, x)
			} else {
				next = append(next, x)
			}
		}
		level = attrset.NextLevel(next)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
