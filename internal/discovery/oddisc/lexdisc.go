package oddisc

import (
	"context"
	"sort"

	"deptree/internal/deps/od"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// LexOptions configures lexicographic OD discovery.
type LexOptions struct {
	// Columns restricts the searched attributes (default: numeric columns).
	Columns []int
	// MaxWidth bounds the marked-list length on each side (default 2).
	MaxWidth int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

// LexResult is a lexicographic OD discovery outcome; a Partial run covers
// a deterministic prefix of the width-level candidate enumeration.
type LexResult struct {
	ODs []od.LexOD
	engine.Stop
	// Completed is the number of candidates validated.
	Completed int
}

// lexBatch is the fixed MapBudget stripe width over lexicographic OD
// candidates. Fixed so the truncation point is worker-independent.
const lexBatch = 8

// LexHolds decides o on r from inside a task of pool. The check compares
// every pair of rows, so each pair ticks a Poller of pool, which aborts
// the task (engine.Abort) once the run has stopped: a deadline ends the
// run in the middle of a check rather than after it.
func LexHolds(pool *engine.Pool, r *relation.Relation, o od.LexOD) bool {
	poll := engine.NewPoller(pool)
	return o.HoldsPolling(r, poll.Tick)
}

// DiscoverLexContext finds valid lexicographic ODs X̄ ~> Ȳ with list
// widths up to MaxWidth, in the level-wise spirit of Langer & Naumann
// [67]: lists grow by appending attributes, and a candidate is pruned when
// a prefix pair is already valid (a valid X̄ ~> Ȳ implies validity of
// every extension of X̄ with the same Ȳ — appending to the LHS only
// refines ties). Only ascending LHS lists are enumerated (descending LHS
// mirrors to the swapped pair); RHS attributes carry either mark.
//
// It runs under a context and LexOptions.Budget. Prefix pruning only ever
// consults strictly shorter LHS lists, so candidates sharing an LHS width
// never prune each other: each width level fans its validity checks out in
// parallel and replays the completed prefix in the sequential order before
// the next width starts.
func DiscoverLexContext(ctx context.Context, r *relation.Relation, opts LexOptions) LexResult {
	cols := opts.Columns
	if cols == nil {
		for c := 0; c < r.Cols(); c++ {
			if r.Schema().Attr(c).Kind != relation.KindString {
				cols = append(cols, c)
			}
		}
	}
	maxWidth := opts.MaxWidth
	if maxWidth == 0 {
		maxWidth = 2
	}
	// Enumerate LHS lists (ordered, no repeats) up to maxWidth.
	var lhsLists [][]od.Marked
	var buildLHS func(cur []od.Marked)
	buildLHS = func(cur []od.Marked) {
		if len(cur) > 0 {
			lhsLists = append(lhsLists, append([]od.Marked(nil), cur...))
		}
		if len(cur) == maxWidth {
			return
		}
		for _, c := range cols {
			used := false
			for _, m := range cur {
				if m.Col == c {
					used = true
				}
			}
			if !used {
				buildLHS(append(cur, od.Marked{Col: c}))
			}
		}
	}
	buildLHS(nil)
	sort.SliceStable(lhsLists, func(i, j int) bool { return len(lhsLists[i]) < len(lhsLists[j]) })

	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "lexdisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("lhs-lists", len(lhsLists))
	defer run.End()
	checkSpan := run.Child(obs.KindPhase, "candidate-validation")

	// valid prefixes: map canonical rendering of (LHS prefix, RHS) pairs.
	type key struct {
		lhs string
		rhs string
	}
	validPrefix := map[key]bool{}
	names := r.Schema().Names()
	render := func(ms []od.Marked) string {
		s := ""
		for _, m := range ms {
			s += m.String(names) + ";"
		}
		return s
	}
	type cand struct {
		lhs []od.Marked
		rhs []od.Marked
	}
	var out []od.LexOD
	completed := 0
	var stopErr error
	for lo := 0; lo < len(lhsLists) && stopErr == nil; {
		// One width level: the run of LHS lists with equal length.
		hi := lo
		for hi < len(lhsLists) && len(lhsLists[hi]) == len(lhsLists[lo]) {
			hi++
		}
		// Collect the level's surviving candidates in sequential order;
		// pruning consults only strictly shorter prefixes, all settled.
		var cands []cand
		for _, lhs := range lhsLists[lo:hi] {
			for _, c := range cols {
				inLHS := false
				for _, m := range lhs {
					if m.Col == c {
						inLHS = true
					}
				}
				if inLHS {
					continue
				}
				for _, desc := range []bool{false, true} {
					rhs := []od.Marked{{Col: c, Desc: desc}}
					implied := false
					for plen := 1; plen < len(lhs); plen++ {
						if validPrefix[key{render(lhs[:plen]), render(rhs)}] {
							implied = true
							break
						}
					}
					if !implied {
						cands = append(cands, cand{lhs: lhs, rhs: rhs})
					}
				}
			}
		}
		hits, done, err := engine.MapBudget(pool, len(cands), lexBatch, func(i int) bool {
			return LexHolds(pool, r, od.LexOD{LHS: cands[i].lhs, RHS: cands[i].rhs, Schema: r.Schema()})
		})
		completed += done
		for i := 0; i < done; i++ {
			if hits[i] {
				validPrefix[key{render(cands[i].lhs), render(cands[i].rhs)}] = true
				out = append(out, od.LexOD{LHS: cands[i].lhs, RHS: cands[i].rhs, Schema: r.Schema()})
			}
		}
		if err != nil {
			stopErr = err
		}
		lo = hi
	}
	checkSpan.SetAttr("completed", completed)
	checkSpan.End()
	reg.Counter("lexdisc.candidates.checked").Add(int64(completed))

	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	reg.Counter("lexdisc.ods.valid").Add(int64(len(out)))
	return LexResult{ODs: out, Stop: engine.StopAt(run, stopErr), Completed: completed}
}
