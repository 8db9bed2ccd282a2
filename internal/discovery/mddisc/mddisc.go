// Package mddisc implements matching dependency discovery after Song &
// Chen [85],[87] (paper §3.7.3): exact discovery of MDs meeting support
// and confidence requirements over candidate similarity thresholds, a
// statistical first-k approximation with the same interface, and relative
// candidate keys (RCKs) [90] — minimal determinant attribute sets whose MD
// meets the requirements.
package mddisc

import (
	"context"
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
	// Partial marks a run truncated by budget, cancellation or panic.
	Partial bool
	// Reason is the stable stop token ("deadline", "max-tasks", ...).
	Reason string
	// Completed is the number of candidate attributes searched.
	Completed int
}

// batch is the fixed MapBudget stripe width: candidate attributes are
// heavy units (each scans all tuple pairs per threshold), so truncation
// keeps per-attribute granularity. Fixed per algorithm so the truncation
// point is worker-independent.
const batch = 4

// DiscoverContext returns single-attribute-LHS MDs meeting the support
// and confidence requirements, each with the maximal admissible threshold
// (the most general matching rule), under a context and Options.Budget.
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

	type hit struct {
		best float64
		ok   bool
	}
	searchSpan := run.Child(obs.KindPhase, "threshold-search")
	hits, done, err := engine.MapBudget(pool, len(cols), batch, func(i int) hit {
		c := cols[i]
		m := metric.ForKind(r.Schema().Attr(c).Kind)
		h := hit{best: -1}
		for _, t := range opts.Thresholds {
			cand := md.MD{
				LHS:    []md.SimAttr{{Col: c, Metric: m, MaxDist: t}},
				RHS:    rhsCols,
				Schema: r.Schema(),
			}
			support, conf := cand.SupportConfidence(eval)
			if support >= opts.MinSupport && conf >= opts.MinConfidence {
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
	reg.Counter("mddisc.candidates.checked").Add(int64(done))

	var out []md.MD
	for i := 0; i < done; i++ {
		if hits[i].ok {
			out = append(out, md.MD{
				LHS:    []md.SimAttr{{Col: cols[i], Metric: metric.ForKind(r.Schema().Attr(cols[i]).Kind), MaxDist: hits[i].best}},
				RHS:    rhsCols,
				Schema: r.Schema(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LHS[0].Col < out[j].LHS[0].Col })
	reg.Counter("mddisc.mds.valid").Add(int64(len(out)))
	res := Result{MDs: out, Completed: done}
	if err != nil {
		res.Partial = true
		res.Reason = engine.Reason(err)
		run.SetAttr("stop", res.Reason)
	}
	return res
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
