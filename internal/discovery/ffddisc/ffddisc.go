// Package ffddisc implements fuzzy-FD discovery (paper §3.6.3): the
// TANE-style mining of Wang & Chen [109] — find the non-trivial FFDs with
// a single RHS attribute by checking every tuple pair against the EQUAL
// resemblance relations — and the incremental variant of Wang, Shen & Hong
// [108], which maintains the discovered set as tuples arrive and only
// compares each new tuple against the existing ones, avoiding database
// re-scans.
package ffddisc

import (
	"context"
	"sort"

	"deptree/internal/deps/ffd"
	"deptree/internal/engine"
	"deptree/internal/metric"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures FFD discovery.
type Options struct {
	// Resemblances assigns the EQUAL relation per column; nil entries (or
	// a nil map) default to CrispEqual for strings and
	// InverseNumeric{Beta: 1} for numeric columns.
	Resemblances map[int]metric.Resemblance
	// MaxLHS bounds the determinant attribute count (default 2).
	MaxLHS int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults(r *relation.Relation) Options {
	if o.MaxLHS == 0 {
		o.MaxLHS = 2
	}
	res := map[int]metric.Resemblance{}
	for c := 0; c < r.Cols(); c++ {
		if o.Resemblances != nil && o.Resemblances[c] != nil {
			res[c] = o.Resemblances[c]
			continue
		}
		if r.Schema().Attr(c).Kind == relation.KindString {
			res[c] = metric.CrispEqual{}
		} else {
			res[c] = metric.InverseNumeric{Beta: 1}
		}
	}
	o.Resemblances = res
	return o
}

// Result is an FFD discovery outcome; a Partial run covers a
// deterministic prefix of the level-wise candidate enumeration.
type Result struct {
	FFDs []ffd.FFD
	engine.Stop
	// Completed is the number of candidates validated.
	Completed int
}

// batch is the fixed MapBudget stripe width over candidates. Fixed so the
// truncation point is worker-independent.
const batch = 8

// DiscoverContext returns the minimal valid FFDs with ≤ MaxLHS determinant
// attributes and a single dependent attribute, checking every tuple pair
// (the [109] small-to-large strategy: an FFD with a sub-LHS already valid
// is pruned as non-minimal, since adding determinant attributes can only
// lower µ_EQ(X) and weaken the constraint).
//
// It runs under a context and Options.Budget. Level-1 candidates are
// mutually independent and validate in parallel; level-2 minimality
// pruning consults only the complete level-1 result, so a budget that
// trips during level 1 ends the run there (running level 2 against a
// partial level-1 key set would not be prefix-deterministic).
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults(r)
	n := r.Cols()
	if n == 0 || r.Rows() < 2 {
		return Result{}
	}
	mk := func(cols []int, rhs int) ffd.FFD {
		out := ffd.FFD{Schema: r.Schema()}
		for _, c := range cols {
			out.LHS = append(out.LHS, ffd.Attr{Col: c, Eq: opts.Resemblances[c]})
		}
		out.RHS = []ffd.Attr{{Col: rhs, Eq: opts.Resemblances[rhs]}}
		return out
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "ffddisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("columns", n)
	defer run.End()

	var found []ffd.FFD
	foundKey := map[string]bool{}
	completed := 0

	// Level 1: all ordered (a, b) pairs.
	type pair struct{ a, b int }
	var l1 []pair
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				l1 = append(l1, pair{a, b})
			}
		}
	}
	l1Span := run.Child(obs.KindPhase, "level-1")
	hits1, done1, err := engine.MapBudget(pool, len(l1), batch, func(i int) bool {
		return mk([]int{l1[i].a}, l1[i].b).Holds(r)
	})
	l1Span.SetAttr("completed", done1)
	l1Span.End()
	completed += done1
	for i := 0; i < done1; i++ {
		if hits1[i] {
			found = append(found, mk([]int{l1[i].a}, l1[i].b))
			foundKey[key([]int{l1[i].a}, l1[i].b)] = true
		}
	}

	// Level 2 with minimality pruning against the full level-1 set.
	if err == nil && opts.MaxLHS >= 2 {
		type trip struct{ a, b, rhs int }
		var l2 []trip
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for rhs := 0; rhs < n; rhs++ {
					if rhs == a || rhs == b {
						continue
					}
					if foundKey[key([]int{a}, rhs)] || foundKey[key([]int{b}, rhs)] {
						continue
					}
					l2 = append(l2, trip{a, b, rhs})
				}
			}
		}
		l2Span := run.Child(obs.KindPhase, "level-2")
		var hits2 []bool
		var done2 int
		hits2, done2, err = engine.MapBudget(pool, len(l2), batch, func(i int) bool {
			return mk([]int{l2[i].a, l2[i].b}, l2[i].rhs).Holds(r)
		})
		l2Span.SetAttr("completed", done2)
		l2Span.End()
		completed += done2
		for i := 0; i < done2; i++ {
			if hits2[i] {
				found = append(found, mk([]int{l2[i].a, l2[i].b}, l2[i].rhs))
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].String() < found[j].String() })
	reg.Counter("ffddisc.candidates.checked").Add(int64(completed))
	reg.Counter("ffddisc.ffds.valid").Add(int64(len(found)))
	return Result{FFDs: found, Completed: completed, Stop: engine.StopAt(run, err)}
}

func key(cols []int, rhs int) string {
	s := ""
	for _, c := range cols {
		s += string(rune('A' + c))
	}
	return s + ">" + string(rune('A'+rhs))
}

// Incremental maintains candidate single-attribute FFDs as tuples arrive
// (the pair-wise incremental search of [108]): each AddTuple compares the
// new tuple against all previous ones only, eliminating candidates whose
// EQUAL inequality fails on some new pair — no re-scan of old pairs.
type Incremental struct {
	r    *relation.Relation
	opts Options
	// alive[a][b] tracks whether a→b is still a candidate.
	alive map[[2]int]bool
}

// NewIncremental starts an incremental session over an empty relation with
// the given schema.
func NewIncremental(schema *relation.Schema, opts Options) *Incremental {
	r := relation.New("incremental", schema)
	opts = opts.withDefaults(r)
	inc := &Incremental{r: r, opts: opts, alive: map[[2]int]bool{}}
	for a := 0; a < schema.Len(); a++ {
		for b := 0; b < schema.Len(); b++ {
			if a != b {
				inc.alive[[2]int{a, b}] = true
			}
		}
	}
	return inc
}

// AddTuple appends a tuple and prunes candidates using only the new pairs.
func (inc *Incremental) AddTuple(row []relation.Value) error {
	if err := inc.r.Append(row); err != nil {
		return err
	}
	newRow := inc.r.Rows() - 1
	for cand, ok := range inc.alive {
		if !ok {
			continue
		}
		a, b := cand[0], cand[1]
		eqA, eqB := inc.opts.Resemblances[a], inc.opts.Resemblances[b]
		for i := 0; i < newRow; i++ {
			muX := eqA.Eq(inc.r.Value(i, a), inc.r.Value(newRow, a))
			muY := eqB.Eq(inc.r.Value(i, b), inc.r.Value(newRow, b))
			if muX > muY {
				inc.alive[cand] = false
				break
			}
		}
	}
	return nil
}

// Current returns the surviving single-attribute FFDs.
func (inc *Incremental) Current() []ffd.FFD {
	var out []ffd.FFD
	var keys [][2]int
	for cand, ok := range inc.alive {
		if ok {
			keys = append(keys, cand)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, cand := range keys {
		out = append(out, ffd.FFD{
			LHS:    []ffd.Attr{{Col: cand[0], Eq: inc.opts.Resemblances[cand[0]]}},
			RHS:    []ffd.Attr{{Col: cand[1], Eq: inc.opts.Resemblances[cand[1]]}},
			Schema: inc.r.Schema(),
		})
	}
	return out
}

// Relation exposes the accumulated instance (for validation in tests).
func (inc *Incremental) Relation() *relation.Relation { return inc.r }
