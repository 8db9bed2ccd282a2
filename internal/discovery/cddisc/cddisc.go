// Package cddisc implements the pay-as-you-go discovery of comparable
// dependencies (Song, Chen & Yu [92], paper §3.4.3): comparison functions
// over synonym attribute pairs are identified incrementally (in dataspaces
// they surface as users map sources), and each newly identified function
// θ generates new candidate CDs against the already-known functions —
// without re-evaluating the dependencies discovered so far.
package cddisc

import (
	"context"
	"sort"

	"deptree/internal/deps/cd"
	"deptree/internal/engine"
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
	found  []cd.CD
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
	added, _, _ := s.addFunction(nil, theta)
	return added
}

// candidate is one (LHS, RHS) combination generated by an AddFunction
// step.
type candidate struct {
	lhs []cd.SimilarityFunc
	rhs cd.SimilarityFunc
}

// batch is the fixed MapBudget stripe width over candidates (each task is
// an O(n²) support scan plus a g3 check). Fixed so the truncation point
// is worker-independent.
const batch = 8

// addFunction is the incremental step, parameterized over the execution
// pool: a nil pool runs the exact sequential path (Session.AddFunction),
// a real pool fans the independent candidate checks out under its budget.
// Candidates never prune each other within a step, so any completed
// prefix of the candidate order is deterministic.
func (s *Session) addFunction(pool *engine.Pool, theta cd.SimilarityFunc) ([]cd.CD, int, error) {
	var cands []candidate
	// New function as RHS of every known single- and two-function LHS.
	for i, a := range s.thetas {
		cands = append(cands, candidate{lhs: []cd.SimilarityFunc{a}, rhs: theta})
		if s.opts.MaxLHS >= 2 {
			for _, b := range s.thetas[i+1:] {
				cands = append(cands, candidate{lhs: []cd.SimilarityFunc{a, b}, rhs: theta})
			}
		}
	}
	// New function as LHS for every known RHS.
	for _, b := range s.thetas {
		cands = append(cands, candidate{lhs: []cd.SimilarityFunc{theta}, rhs: b})
		if s.opts.MaxLHS >= 2 {
			for _, a := range s.thetas {
				if a != b && a != theta {
					cands = append(cands, candidate{lhs: []cd.SimilarityFunc{theta, a}, rhs: b})
				}
			}
		}
	}
	hits, done, err := engine.MapBudget(pool, len(cands), batch, func(i int) bool {
		c := cands[i]
		if s.lhsSupport(c.lhs) < s.opts.MinSupport {
			return false
		}
		return (cd.CD{LHS: c.lhs, RHS: c.rhs, Schema: s.r.Schema()}).G3(s.r) <= s.opts.MaxError
	})
	var added []cd.CD
	for i := 0; i < done; i++ {
		if hits[i] {
			added = append(added, cd.CD{LHS: cands[i].lhs, RHS: cands[i].rhs, Schema: s.r.Schema()})
		}
	}
	s.thetas = append(s.thetas, theta)
	sort.Slice(added, func(i, j int) bool { return added[i].String() < added[j].String() })
	s.found = append(s.found, added...)
	return added, done, err
}

// lhsSupport counts pairs similar w.r.t. all LHS functions.
func (s *Session) lhsSupport(lhs []cd.SimilarityFunc) int {
	support := 0
	for i := 0; i < s.r.Rows(); i++ {
	pairs:
		for j := i + 1; j < s.r.Rows(); j++ {
			for _, f := range lhs {
				if !f.Similar(s.r, i, j) {
					continue pairs
				}
			}
			support++
		}
	}
	return support
}

// Result is a CD discovery outcome; a Partial run covers a deterministic
// prefix of the incremental candidate enumeration.
type Result struct {
	CDs []cd.CD
	// Partial marks a run truncated by budget, cancellation or panic.
	Partial bool
	// Reason is the stable stop token; empty when complete.
	Reason string
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

// Discover runs a complete pay-as-you-go session: every function in
// Options.Thetas (or the per-column defaults) is registered in order and
// the accumulated CD set is returned.
func Discover(r *relation.Relation, opts Options) []cd.CD {
	return DiscoverContext(context.Background(), r, opts).CDs
}

// DiscoverContext is Discover under a context and Options.Budget. One
// pool spans the whole session, so the budget covers every incremental
// step; steps stay sequential (each consults the thetas registered before
// it) while the candidate checks within a step fan out.
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
	completed := 0
	var stopErr error
	for _, theta := range thetas {
		_, done, err := s.addFunction(pool, theta)
		completed += done
		if err != nil {
			stopErr = err
			break
		}
	}
	stepSpan.SetAttr("completed", completed)
	stepSpan.End()
	reg.Counter("cddisc.candidates.checked").Add(int64(completed))
	reg.Counter("cddisc.cds.valid").Add(int64(len(s.found)))
	res := Result{CDs: s.found, Completed: completed}
	if stopErr != nil {
		res.Partial = true
		res.Reason = engine.Reason(stopErr)
		run.SetAttr("stop", res.Reason)
	}
	return res
}
