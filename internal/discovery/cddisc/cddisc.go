// Package cddisc implements the pay-as-you-go discovery of comparable
// dependencies (Song, Chen & Yu [92], paper §3.4.3): comparison functions
// over synonym attribute pairs are identified incrementally (in dataspaces
// they surface as users map sources), and each newly identified function
// θ generates new candidate CDs against the already-known functions —
// without re-evaluating the dependencies discovered so far.
package cddisc

import (
	"context"
	"slices"
	"sort"

	"deptree/internal/deps/cd"
	"deptree/internal/engine"
	"deptree/internal/metric"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures CD discovery.
type Options struct {
	// MinSupport is the minimum number of LHS-similar tuple pairs
	// (default 1).
	MinSupport int
	// MaxError is the g3 budget e: a CD is kept when the (greedy) g3 error
	// is ≤ e (default 0: exact CDs only). Exact validation is NP-complete
	// [91]; the greedy vertex-cover approximation of cd.CD.G3 is used.
	MaxError float64
	// MaxLHS bounds the number of LHS similarity functions (default 2).
	MaxLHS int
	// Thetas are the comparison functions DiscoverContext registers, in
	// order. Nil defaults to one single-attribute function per column:
	// threshold 2 for strings, 0 for numerics (equality up to small
	// typos / exact numeric match).
	Thetas []cd.SimilarityFunc
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 1
	}
	if o.MaxLHS == 0 {
		o.MaxLHS = 2
	}
	return o
}

// Session is a pay-as-you-go discovery session: comparison functions are
// added over time and the discovered CD set grows monotonically.
type Session struct {
	r      *relation.Relation
	opts   Options
	thetas []cd.SimilarityFunc
	// tabs[i] is thetas[i]'s distance table.
	tabs  []*metric.Table
	found []cd.CD
}

// NewSession starts a session over a dataspace relation.
func NewSession(r *relation.Relation, opts Options) *Session {
	return &Session{r: r, opts: opts.withDefaults()}
}

// Found returns the CDs discovered so far.
func (s *Session) Found() []cd.CD { return s.found }

// Functions returns the comparison functions identified so far.
func (s *Session) Functions() []cd.SimilarityFunc { return s.thetas }

// AddFunction registers a newly identified comparison function θ and
// generates the new dependencies involving it: θ as the RHS of known-LHS
// combinations, and θ as an LHS member for known RHS functions — exactly
// the incremental step of [92]. It returns the CDs added by this call.
func (s *Session) AddFunction(theta cd.SimilarityFunc) []cd.CD {
	added, _, _ := s.addFunction(nil, theta, metric.NewTable(nil, s.r, theta.Metric, theta.I, theta.J))
	return added
}

// similar is cd.SimilarityFunc.Similar read from θ's table, which spans
// both synonym columns: at least one slot within its threshold, nulls
// never matching.
func similar(f cd.SimilarityFunc, tab *metric.Table, a, b int) bool {
	ci, cj := tab.Classes(f.I), tab.Classes(f.J)
	return slot(tab, ci[a], ci[b], f.TII) ||
		slot(tab, cj[a], cj[b], f.TJJ) ||
		slot(tab, ci[a], cj[b], f.TIJ) || slot(tab, cj[a], ci[b], f.TIJ)
}

// slot reports whether classes x and y are non-null and within t; a
// negative t disables the slot.
func slot(tab *metric.Table, x, y int, t float64) bool {
	return t >= 0 && !tab.Null(x) && !tab.Null(y) && tab.At(x, y) <= t // NaN fails
}

// candidate is one (LHS, RHS) combination generated by an AddFunction
// step, as indices into the session's functions.
type candidate struct {
	lhs []int
	rhs int
}

// batch is the fixed MapBudget stripe width over candidates (each task is
// one walk over the distinct tuple pairs of the candidate's columns).
// Fixed so the truncation point is worker-independent.
const batch = 8

// addFunction is the incremental step, parameterized over the execution
// pool: a nil pool runs the exact sequential path (Session.AddFunction),
// a real pool fans the independent candidate checks out under its budget.
// tab is θ's distance table. Candidates never prune each other within a
// step, so any completed prefix of the candidate order is deterministic.
// A step its budget interrupts adds no CDs: its found CDs would sort in
// among the ones it never checked, so a partial output stays a line
// prefix of the complete one.
func (s *Session) addFunction(pool *engine.Pool, theta cd.SimilarityFunc, tab *metric.Table) ([]cd.CD, int, error) {
	t := len(s.thetas)
	s.thetas = append(s.thetas, theta)
	s.tabs = append(s.tabs, tab)
	var cands []candidate
	// New function as RHS of every known single- and two-function LHS.
	for i := 0; i < t; i++ {
		cands = append(cands, candidate{[]int{i}, t})
		if s.opts.MaxLHS >= 2 {
			for j := i + 1; j < t; j++ {
				cands = append(cands, candidate{[]int{i, j}, t})
			}
		}
	}
	// New function as LHS for every known RHS.
	for j := 0; j < t; j++ {
		cands = append(cands, candidate{[]int{t}, j})
		if s.opts.MaxLHS >= 2 {
			for i := 0; i < t; i++ {
				if s.thetas[i] != s.thetas[j] && s.thetas[i] != theta {
					cands = append(cands, candidate{[]int{t, i}, j})
				}
			}
		}
	}
	hits, done, err := engine.MapBudget(pool, len(cands), batch, func(i int) bool {
		return s.check(pool, cands[i])
	})
	if done < len(cands) || err != nil {
		return nil, done, err
	}
	var added []cd.CD
	for i := range cands {
		if hits[i] {
			added = append(added, s.dependency(cands[i]))
		}
	}
	sort.Slice(added, func(i, j int) bool { return added[i].String() < added[j].String() })
	s.found = append(s.found, added...)
	return added, done, err
}

// dependency is the candidate's CD.
func (s *Session) dependency(c candidate) cd.CD {
	out := cd.CD{RHS: s.thetas[c.rhs], Schema: s.r.Schema()}
	for _, i := range c.lhs {
		out.LHS = append(out.LHS, s.thetas[i])
	}
	return out
}

// check reports whether a candidate CD has support ≥ MinSupport and g3
// error ≤ MaxError. One walk over the distinct tuple pairs of its columns
// counts the LHS-similar pairs and the violating ones among them. The g3
// error is 0 exactly when no pair violates, so the row-level cd.CD.G3 runs
// only for a positive error budget and a violated candidate.
func (s *Session) check(pool *engine.Pool, c candidate) bool {
	var cols []int
	for _, i := range append([]int{c.rhs}, c.lhs...) {
		cols = append(cols, s.thetas[i].I, s.thetas[i].J)
	}
	slices.Sort(cols) // a single-column θ lists its column twice
	cols = slices.Compact(cols)
	var support, violations int64
	metric.Pairs(pool, s.r, cols, func(a, b int, w int64) {
		for _, i := range c.lhs {
			if !similar(s.thetas[i], s.tabs[i], a, b) {
				return
			}
		}
		support += w
		if !similar(s.thetas[c.rhs], s.tabs[c.rhs], a, b) {
			violations += w
		}
	})
	switch {
	case support < int64(s.opts.MinSupport):
		return false
	case violations == 0:
		return s.opts.MaxError >= 0
	case s.opts.MaxError > 0:
		return s.dependency(c).G3(s.r) <= s.opts.MaxError
	default:
		return false
	}
}

// Result is a CD discovery outcome; a Partial run covers a deterministic
// prefix of the incremental candidate enumeration.
type Result struct {
	CDs []cd.CD
	engine.Stop
	// Completed is the number of candidates validated.
	Completed int
}

// DefaultThetas is the servable default function sequence: one
// single-attribute similarity function per column, threshold 2 for
// strings and 0 for numerics, in column order.
func DefaultThetas(r *relation.Relation) []cd.SimilarityFunc {
	var out []cd.SimilarityFunc
	for c := 0; c < r.Cols(); c++ {
		t := 0.0
		if r.Schema().Attr(c).Kind == relation.KindString {
			t = 2
		}
		out = append(out, cd.Single(r.Schema(), r.Schema().Attr(c).Name, t))
	}
	return out
}

// DiscoverContext runs a complete pay-as-you-go session: every function in
// Options.Thetas (or the per-column defaults) is registered in order and
// the accumulated CD set is returned.
//
// It runs under a context and Options.Budget. One pool spans the whole
// session, so the budget covers every incremental step. The functions'
// distance tables fan out first, one task each; then the steps run
// sequentially (each consults the thetas registered before it) while the
// candidate checks within a step fan out.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	thetas := opts.Thetas
	if thetas == nil {
		thetas = DefaultThetas(r)
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "cddisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("thetas", len(thetas))
	defer run.End()
	stepSpan := run.Child(obs.KindPhase, "incremental-steps")

	s := NewSession(r, opts)
	tabs := make([]*metric.Table, len(thetas))
	stopErr := pool.ForEach(len(thetas), func(i int) { tabs[i] = metric.NewTable(pool, r, thetas[i].Metric, thetas[i].I, thetas[i].J) })
	completed := 0
	for i := 0; stopErr == nil && i < len(thetas); i++ {
		var done int
		_, done, stopErr = s.addFunction(pool, thetas[i], tabs[i])
		completed += done
	}
	stepSpan.SetAttr("completed", completed)
	stepSpan.End()
	reg.Counter("cddisc.candidates.checked").Add(int64(completed))
	reg.Counter("cddisc.cds.valid").Add(int64(len(s.found)))
	return Result{CDs: s.found, Completed: completed, Stop: engine.StopAt(run, stopErr)}
}
