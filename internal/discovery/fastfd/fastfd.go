// Package fastfd implements FastFD (Wyss, Giannella & Robertson [112],
// paper §1.4.2): depth-first FD discovery from difference sets. Agree sets
// are computed over tuple pairs; for each candidate RHS attribute A the
// minimal covers of the difference sets containing A yield the minimal FDs
// X → A. The per-RHS cover searches are independent and fan out across an
// engine.Pool; results are collected in RHS order, so output is identical
// for every worker count.
package fastfd

import (
	"context"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps/fd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// Options configures a FastFD run.
type Options struct {
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

// Result is a FastFD run's outcome. A Partial result covers the FDs of
// the first Completed RHS attributes only — a deterministic prefix for
// any worker count under a MaxTasks budget.
type Result struct {
	FDs []fd.FD
	// Partial marks a truncated run.
	Partial bool
	// Reason is the stable stop token ("deadline", "max-tasks", ...).
	Reason string
	// Completed is the number of RHS attributes fully searched.
	Completed int
}

// rhsBatch is the fan-out stripe width for the per-RHS cover searches.
// Fixed (worker-independent) so a budget-truncated run covers the same
// RHS prefix for every worker count; small because each cover search is
// heavy and relations rarely exceed a few dozen columns.
const rhsBatch = 4

// DiscoverContext returns the minimal exact FDs with singleton RHS.
// Results agree with TANE on every instance (a property the test suite
// checks). It runs under a context and Options.Budget, reporting
// budget-truncated runs as a Partial prefix instead of failing.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	n := r.Cols()
	if n == 0 || n > attrset.MaxAttrs {
		return Result{}
	}

	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "fastfd")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("cols", n)
	defer run.End()

	agreeSpan := run.Child(obs.KindPhase, "agree-sets")
	agreeTimer := reg.Histogram("fastfd.agree.seconds").Start()
	agree, err := agreeSets(r, pool)
	agreeTimer()
	agreeSpan.SetAttr("sets", len(agree))
	agreeSpan.End()
	reg.Counter("fastfd.agree_sets").Add(int64(len(agree)))
	if err != nil {
		run.SetAttr("stop", engine.Reason(err))
		return Result{Partial: true, Reason: engine.Reason(err)}
	}
	// Deterministic agree-set order, shared by every RHS search.
	agreeList := make([]attrset.Set, 0, len(agree))
	for ag := range agree {
		agreeList = append(agreeList, ag)
	}
	sort.Slice(agreeList, func(i, j int) bool { return agreeList[i] < agreeList[j] })

	coverSpan := run.Child(obs.KindPhase, "rhs-covers")
	coverTimer := reg.Histogram("fastfd.covers.seconds").Start()
	perRHS, done, runErr := engine.MapBudget(pool, n, rhsBatch, func(a int) []fd.FD {
		return rhsFDs(r, agreeList, a, pool)
	})
	coverTimer()
	coverSpan.SetAttr("completed", done)
	coverSpan.End()
	reg.Counter("fastfd.rhs.completed").Add(int64(done))
	var results []fd.FD
	for _, fds := range perRHS {
		results = append(results, fds...)
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].LHS != results[j].LHS {
			return results[i].LHS < results[j].LHS
		}
		return results[i].RHS < results[j].RHS
	})
	reg.Counter("fastfd.fds.found").Add(int64(len(results)))
	if runErr != nil {
		run.SetAttr("stop", engine.Reason(runErr))
		return Result{FDs: results, Partial: true, Reason: engine.Reason(runErr), Completed: done}
	}
	return Result{FDs: results, Completed: n}
}

// rhsFDs returns the minimal FDs X → a given the run's sorted agree sets:
// the minimal covers of a's difference sets. The cover search polls pool
// (see minimalHittingSets), which may be nil.
func rhsFDs(r *relation.Relation, agreeList []attrset.Set, a int, pool *engine.Pool) []fd.FD {
	n := r.Cols()
	full := attrset.Full(n)
	// Difference sets for RHS a: D_A = {R \ ag \ {a} : pair disagrees
	// on a}, i.e. attributes that could "explain" the disagreement.
	var diffs []attrset.Set
	for _, ag := range agreeList {
		if !ag.Has(a) {
			diffs = append(diffs, full.Minus(ag).Remove(a))
		}
	}
	var out []fd.FD
	if len(diffs) == 0 {
		// No *somewhere-agreeing* pair disagrees on a. Two cases:
		// (1) column a is constant — then ∅ → a;
		// (2) column a varies, but every pair that disagrees on a
		//     agrees on nothing at all — then for every attribute B,
		//     all pairs agreeing on B agree on a, so every {B} → a is
		//     a (minimal) FD.
		if r.Rows() > 0 {
			if _, card := r.Codes(a); card == 1 {
				return []fd.FD{{LHS: attrset.Empty, RHS: attrset.Single(a), Schema: r.Schema()}}
			}
		}
		if r.Rows() > 1 {
			for b := 0; b < n; b++ {
				if b != a {
					out = append(out, fd.FD{LHS: attrset.Single(b), RHS: attrset.Single(a), Schema: r.Schema()})
				}
			}
		}
		return out
	}
	// Minimal covers: minimal X hitting every difference set.
	covers := minimalHittingSets(diffs, full.Remove(a), pool)
	for _, x := range covers {
		out = append(out, fd.FD{LHS: x, RHS: attrset.Single(a), Schema: r.Schema()})
	}
	return out
}

// agreeFilterBits sizes the direct-mapped filter of recently inserted
// agree sets that sits in front of the agree-set map: 2^agreeFilterBits
// slots, indexed by a multiplicative hash of the set.
const agreeFilterBits = 8

// agreeSets computes the set of agree sets ag(t1,t2) over all tuple pairs
// that agree on at least one attribute. Pairs are enumerated per stripped
// partition class to skip pairs agreeing nowhere, and each pair is visited
// once: in the sweep of column c it is skipped when some column before c
// has equal codes for it, since it shares a class of that earlier column
// and was visited there (the visiting column is min(ag)). The pair sweep
// is quadratic and runs on the submitting goroutine, so before each
// row's sweep it counts the row and its pairs on an engine.Poller and
// returns the pool's error once the run's deadline fires or it is
// cancelled.
//
// Each column is dictionary-encoded once, straight into one row-major
// int32 array, so a pair compares two contiguous rows. Few distinct
// agree sets arise from many pairs, so a small direct-mapped filter of
// recently inserted sets answers most repeats and the map is written
// about once per distinct set. Any set the filter misses goes to the
// map, so the filter never changes the result.
func agreeSets(r *relation.Relation, pool *engine.Pool) (map[attrset.Set]bool, error) {
	n, rows := r.Cols(), r.Rows()
	codes := make([]int32, rows*n)
	cards := make([]int, n)
	for c := 0; c < n; c++ {
		var d relation.Dict
		for i, v := range r.Column(c) {
			codes[i*n+c] = int32(d.Code(v))
		}
		cards[c] = d.Len()
	}
	column := make([]int, rows)
	var filter [1 << agreeFilterBits]attrset.Set
	out := make(map[attrset.Set]bool)
	poll := engine.NewPoller(pool)
	for c := 0; c < n; c++ {
		for i := range column {
			column[i] = int(codes[i*n+c])
		}
		p := partition.FromCodes(column, cards[c])
		for ci := 0; ci < p.NumClasses(); ci++ {
			class := p.Class(ci)
			for i := range class {
				if err := poll.Err(len(class) - i); err != nil {
					return nil, err
				}
				sweepRow(codes, n, c, class[i], class[i+1:], &filter, out)
			}
		}
	}
	return out, nil
}

// sweepRow is agreeSets' inner loop over the pairs of row i with rest,
// the rows after it in its class of column c; on its own, its few live
// values stay in registers.
func sweepRow(codes []int32, n, c int, i int32, rest []int32, filter *[1 << agreeFilterBits]attrset.Set, out map[attrset.Set]bool) {
	ri := codes[int(i)*n:][:n]
pairs:
	for _, j := range rest {
		rj := codes[int(j)*n:][:n]
		for col := 0; col < c; col++ {
			if ri[col] == rj[col] {
				continue pairs
			}
		}
		ag := attrset.Single(c)
		for col := c + 1; col < n; col++ {
			if ri[col] == rj[col] {
				ag = ag.Add(col)
			}
		}
		// ag holds c, so it never equals an empty slot.
		slot := &filter[uint64(ag)*0x9e3779b97f4a7c15>>(64-agreeFilterBits)]
		if *slot != ag {
			*slot = ag
			out[ag] = true
		}
	}
}

// minimalHittingSets enumerates the minimal subsets of universe that
// intersect every set in diffs, by depth-first search with subset pruning.
// A set failing to hit some difference set (because that set is empty)
// yields no cover at all: an empty difference set means the FD cannot hold
// with any LHS. The DFS is worst-case exponential — this is where an
// adversarial input pins a worker — so every expansion ticks a Poller of
// pool, which unwinds the task (engine.Abort) once the run has stopped.
func minimalHittingSets(diffs []attrset.Set, universe attrset.Set, pool *engine.Pool) []attrset.Set {
	for _, d := range diffs {
		if d.IsEmpty() {
			return nil
		}
	}
	// Order difference sets by size for better branching.
	sorted := append([]attrset.Set(nil), diffs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Len() < sorted[j].Len() })
	var covers []attrset.Set
	poll := engine.NewPoller(pool)
	var dfs func(current attrset.Set, idx int)
	dfs = func(current attrset.Set, idx int) {
		poll.Tick()
		// Find the first uncovered difference set.
		for idx < len(sorted) && sorted[idx].Intersects(current) {
			idx++
		}
		if idx == len(sorted) {
			// current hits everything; keep if minimal vs found covers.
			for _, c := range covers {
				if c.SubsetOf(current) {
					return
				}
			}
			covers = append(covers, current)
			return
		}
		candidates := sorted[idx].Intersect(universe)
		candidates.Each(func(b int) {
			next := current.Add(b)
			// Prune: a known cover inside next means non-minimal.
			for _, c := range covers {
				if c.SubsetOf(next) {
					return
				}
			}
			dfs(next, idx+1)
		})
	}
	dfs(attrset.Empty, 0)
	// Final minimality filter (DFS ordering can admit supersets found
	// before their subsets).
	var minimal []attrset.Set
	for i, c := range covers {
		keep := true
		for j, d := range covers {
			if i != j && d.SubsetOf(c) && d != c {
				keep = false
				break
			}
		}
		if keep {
			minimal = append(minimal, c)
		}
	}
	sort.Slice(minimal, func(i, j int) bool { return minimal[i] < minimal[j] })
	return minimal
}
