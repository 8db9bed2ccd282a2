// Package oddisc implements order dependency discovery (paper §4.2.3)
// after Langer & Naumann [67] and the set-based FASTOD of Szlichta et al.
// [99]: single-attribute-per-side candidates with both ascending and
// descending marks, plus conditional pruning of ODs implied by
// already-found ones. The default core is set-based through order
// compatibility (setod.go, per the Godfrey/Golab/Kargar/Srivastava
// errata note): FD ∧ order-compatibility decided over per-column rank
// arrays built once; a pairwise od.Holds check of every candidate,
// kept in the tests, serves as its exact oracle. Lexicographic OD
// discovery (lexdisc.go) is unchanged by the core choice.
package oddisc

import (
	"context"
	"sort"

	"deptree/internal/deps/od"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures OD discovery.
type Options struct {
	// Columns restricts the searched attributes (default: all numeric
	// columns; string columns order lexicographically, which is rarely
	// meaningful, so they are opt-in).
	Columns []int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

// Result is an OD discovery outcome. A Partial result covers a
// deterministic prefix of the candidate enumeration order.
type Result struct {
	ODs []od.OD
	engine.Stop
	// Completed is the number of candidate ODs checked.
	Completed int
}

// DiscoverContext returns the valid ODs of the forms A≤ → B≤ and A≤ → B≥
// over the candidate columns (the A≥ variants are mirror images — t_α and
// t_β swap — and are omitted as implied), under a context and
// Options.Budget. It runs the set-based core (setod.go): an O(n) neighbor
// fail-fast pre-pass per candidate, then — for survivors — a linear
// order-compatibility scan over lazily built per-column orders (at most
// one ascending sort per column for the whole run), with the exact
// od.Holds pair logic as the fallback for columns where a NaN breaks
// Compare totality. Output is identical to a pairwise od.Holds check of
// every candidate (the test-only oracle) for every input and worker count.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	cols, cands := candidates(r, opts)
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "oddisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("candidates", len(cands))
	defer run.End()

	// Column orders are built lazily inside the first candidate check
	// that survives the fail-fast pre-pass on each column, so budget
	// tasks remain candidate checks and MaxTasks truncation keeps
	// deterministic candidate-prefix semantics.
	orders := newColOrders(r, cols, reg)
	fallbacks := reg.Counter("oddisc.setod.fallbacks")
	check := func(i int) bool { return setHolds(r, cands[i], orders, fallbacks, true) }

	checkSpan := run.Child(obs.KindPhase, "candidate-checks")
	checkTimer := reg.Histogram("oddisc.checks.seconds").Start()
	valid, done, err := engine.MapBudget(pool, len(cands), 0, check)
	checkTimer()
	checkSpan.SetAttr("completed", done)
	checkSpan.SetAttr("columns-sorted", int(orders.built.Load()))
	checkSpan.End()
	reg.Counter("oddisc.candidates.checked").Add(int64(done))
	var out []od.OD
	for i := 0; i < done; i++ {
		if valid[i] {
			out = append(out, cands[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	reg.Counter("oddisc.ods.valid").Add(int64(len(out)))
	return Result{ODs: out, Completed: done, Stop: engine.StopAt(run, err)}
}

// candidates returns the searched columns (Options.Columns, or every
// non-string column) and, in the fixed order budget truncation follows,
// the candidates A≤ → B≤ and A≤ → B≥ over every ordered pair of them.
func candidates(r *relation.Relation, opts Options) (cols []int, cands []od.OD) {
	cols = opts.Columns
	if cols == nil {
		for c := 0; c < r.Cols(); c++ {
			if r.Schema().Attr(c).Kind != relation.KindString {
				cols = append(cols, c)
			}
		}
	}
	for _, a := range cols {
		for _, b := range cols {
			if a == b {
				continue
			}
			for _, desc := range []bool{false, true} {
				cands = append(cands, od.OD{
					LHS:    []od.Marked{{Col: a}},
					RHS:    []od.Marked{{Col: b, Desc: desc}},
					Schema: r.Schema(),
				})
			}
		}
	}
	return cols, cands
}

// Minimal reduces an OD list to a canonical cover: a subset with the
// same transitive closure (A≤→B≤ and B≤→C≤ imply A≤→C≤) from which no
// further OD can be dropped. Axiomatic implication for ODs is
// co-NP-complete in general [101]; for the single-attribute ODs produced
// by DiscoverContext, transitive closure over the two mark polarities is
// sound and complete.
//
// Redundant ODs are removed greedily, one at a time, re-checking
// implication against the REMAINING graph after each removal. Checking
// every OD against the full graph and dropping all redundant ones at
// once would be unsound on cycles: in a clique of order-equivalent
// columns every edge is individually implied by the others, so the
// simultaneous rule would delete the entire clique and lose its closure.
// The greedy order is the input order, so sorted discovery output yields
// a deterministic cover.
func Minimal(ods []od.OD) []od.OD {
	type nd struct {
		col  int
		desc bool
	}
	type edge struct{ u, v nd }
	edges := make([]edge, len(ods))
	simple := make([]bool, len(ods))
	enabled := make([]bool, len(ods))
	for i, o := range ods {
		enabled[i] = true
		if len(o.LHS) != 1 || len(o.RHS) != 1 {
			continue
		}
		simple[i] = true
		edges[i] = edge{
			nd{o.LHS[0].Col, o.LHS[0].Desc},
			nd{o.RHS[0].Col, o.RHS[0].Desc},
		}
	}
	// reaches runs a DFS over the enabled simple ODs' edges — each OD
	// contributes its edge and the mirrored form ¬u → ¬v (reverse the
	// tuple pair and both marks flip).
	reaches := func(from, to nd) bool {
		adj := map[nd][]nd{}
		for i, e := range edges {
			if !enabled[i] || !simple[i] {
				continue
			}
			adj[e.u] = append(adj[e.u], e.v)
			mu, mv := nd{e.u.col, !e.u.desc}, nd{e.v.col, !e.v.desc}
			adj[mu] = append(adj[mu], mv)
		}
		visited := map[nd]bool{from: true}
		stack := []nd{from}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range adj[cur] {
				if next == to {
					return true
				}
				if !visited[next] {
					visited[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	var out []od.OD
	for i, o := range ods {
		if !simple[i] {
			out = append(out, o)
			continue
		}
		enabled[i] = false
		if reaches(edges[i].u, edges[i].v) {
			continue // implied by the remaining cover; stays removed
		}
		enabled[i] = true
		out = append(out, o)
	}
	return out
}
