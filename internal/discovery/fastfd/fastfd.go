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

// stopCheckEvery is how many steps of a quadratic or exponential loop (the
// agree-set pair sweep, the cover DFS) run between polls of the run's
// stop condition.
const stopCheckEvery = 1024

// Discover returns the minimal exact FDs with singleton RHS. Results agree
// with TANE on every instance (a property the test suite checks).
func Discover(r *relation.Relation) []fd.FD {
	return DiscoverOpts(r, Options{})
}

// DiscoverOpts is Discover with explicit options.
func DiscoverOpts(r *relation.Relation, opts Options) []fd.FD {
	return DiscoverContext(context.Background(), r, opts).FDs
}

// DiscoverContext is DiscoverOpts under a context and Options.Budget,
// reporting budget-truncated runs as a Partial prefix instead of failing.
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

	// stop aborts a pinned cover search once the run is cancelled; the
	// aborted task does not count as completed, so its batch is excluded
	// from the partial prefix.
	stop := func() {
		if err := pool.Err(); err != nil {
			engine.Abort(err)
		}
	}
	coverSpan := run.Child(obs.KindPhase, "rhs-covers")
	coverTimer := reg.Histogram("fastfd.covers.seconds").Start()
	perRHS, done, runErr := engine.MapBudget(pool, n, rhsBatch, func(a int) []fd.FD {
		return rhsFDs(r, agreeList, a, stop)
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
// the minimal covers of a's difference sets. stop is polled by the cover
// search (see minimalHittingSets).
func rhsFDs(r *relation.Relation, agreeList []attrset.Set, a int, stop func()) []fd.FD {
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
	covers := minimalHittingSets(diffs, full.Remove(a), stop)
	for _, x := range covers {
		out = append(out, fd.FD{LHS: x, RHS: attrset.Single(a), Schema: r.Schema()})
	}
	return out
}

// agreeSets computes the set of agree sets ag(t1,t2) over all tuple pairs
// that agree on at least one attribute. Pairs are enumerated per stripped
// partition class to skip pairs agreeing nowhere, and each pair is visited
// once: in the sweep of column c it is skipped when some column before c
// has equal codes for it, since it shares a class of that earlier column
// and was visited there (the visiting column is min(ag)). The pair sweep
// is quadratic, so it polls the pool between classes and every
// stopCheckEvery pairs inside one, and stops early once the run's
// deadline fires or it is cancelled.
func agreeSets(r *relation.Relation, pool *engine.Pool) (map[attrset.Set]bool, error) {
	n := r.Cols()
	codes := make([][]int, n)
	for c := 0; c < n; c++ {
		codes[c], _ = r.Codes(c)
	}
	out := make(map[attrset.Set]bool)
	steps := 0
	for c := 0; c < n; c++ {
		p := partition.FromCodes(codes[c], distinct(codes[c]))
		for ci := 0; ci < p.NumClasses(); ci++ {
			class := p.Class(ci)
			if err := pool.Err(); err != nil {
				return nil, err
			}
			for i := 0; i < len(class); i++ {
				ri := class[i]
			pairs:
				for _, rj := range class[i+1:] {
					if steps++; steps%stopCheckEvery == 0 {
						if err := pool.Err(); err != nil {
							return nil, err
						}
					}
					for col := 0; col < c; col++ {
						if codes[col][ri] == codes[col][rj] {
							continue pairs
						}
					}
					ag := attrset.Single(c)
					for col := c + 1; col < n; col++ {
						if codes[col][ri] == codes[col][rj] {
							ag = ag.Add(col)
						}
					}
					out[ag] = true
				}
			}
		}
	}
	return out, nil
}

func distinct(codes []int) int {
	max := -1
	for _, c := range codes {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// minimalHittingSets enumerates the minimal subsets of universe that
// intersect every set in diffs, by depth-first search with subset pruning.
// A set failing to hit some difference set (because that set is empty)
// yields no cover at all: an empty difference set means the FD cannot hold
// with any LHS. The DFS is worst-case exponential — this is where an
// adversarial input pins a worker — so stop (which may not return) is
// polled every stopCheckEvery expansions.
func minimalHittingSets(diffs []attrset.Set, universe attrset.Set, stop func()) []attrset.Set {
	for _, d := range diffs {
		if d.IsEmpty() {
			return nil
		}
	}
	// Order difference sets by size for better branching.
	sorted := append([]attrset.Set(nil), diffs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Len() < sorted[j].Len() })
	var covers []attrset.Set
	steps := 0
	var dfs func(current attrset.Set, idx int)
	dfs = func(current attrset.Set, idx int) {
		if steps++; stop != nil && steps%stopCheckEvery == 0 {
			stop()
		}
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
