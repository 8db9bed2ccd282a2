// Package tane implements the TANE algorithm of Huhtala et al. [53],[54]
// (paper §1.4.2, §2.3.3): level-wise discovery of minimal functional
// dependencies — and, with a nonzero error budget ε, of approximate FDs
// under the g3 measure — over stripped partitions.
//
// The implementation follows the original pruning rules: RHS candidate sets
// C+(X), key pruning, and apriori level generation, with partition products
// computed incrementally level to level through a shared
// engine.PartitionCache. Candidate validation at each lattice level fans
// out across an engine.Pool; per-node results are collected positionally,
// so the discovered FD set is identical for every worker count (the
// differential harness in internal/engine asserts this).
package tane

import (
	"context"
	"fmt"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps/fd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// Options configures a TANE run.
type Options struct {
	// MaxError is the g3 budget ε: 0 discovers exact FDs, > 0 approximate
	// FDs with g3 ≤ ε (§2.3.3).
	MaxError float64
	// MaxLHS bounds the determinant size (0 = no bound).
	MaxLHS int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
	// Cache optionally supplies a shared partition cache (for example to
	// reuse partitions across several discovery runs over the same
	// relation). When nil a private cache is used, byte-bounded by
	// Budget.MaxCacheBytes. The cache must have been built over the same
	// relation passed to DiscoverContext.
	Cache *engine.PartitionCache
}

// Result is a TANE run's outcome. A run that exhausts its budget (or is
// cancelled, or loses a worker to a panic) degrades to a Partial result:
// FDs holds every minimal FD whose validation completed — whole lattice
// levels, so the set is deterministic for any worker count under a
// MaxTasks budget — rather than nothing.
type Result struct {
	FDs []fd.FD
	// Stop is how the run ended; a Partial run's FDs cover only the
	// completed lattice levels.
	engine.Stop
	// Levels is the number of lattice levels whose validation completed.
	Levels int
}

// node carries per-lattice-node state: the stripped partition π_X and the
// RHS candidate set C+(X).
type node struct {
	part *partition.Partition
	cand attrset.Set
}

// DiscoverContext runs TANE over the relation and returns the minimal
// (approximate) FDs with singleton right-hand sides, sorted for
// deterministic output. It runs under a context and Options.Budget: the
// lattice walk stops as soon as the context is cancelled, the deadline
// fires, the task budget runs out, or a worker panics, and the Result
// reports the FDs of the completed levels with Partial set.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	n := r.Cols()
	if n == 0 || n > attrset.MaxAttrs || r.Rows() == 0 {
		return Result{}
	}
	reg := opts.Obs
	cache := opts.Cache
	if cache == nil {
		cache = engine.NewPartitionCache(r, opts.Budget.MaxCacheBytes)
		cache.SetObserver(reg)
	}
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "tane")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("cols", n)
	defer run.End()
	var levelSpan *obs.Span
	// stopErr cuts the walk; a truncated run keeps everything committed
	// before it — whole fan-out phases, so identical for every worker
	// count under a MaxTasks budget.
	var stopErr error

	fullSet := attrset.Full(n)
	var results []fd.FD

	// Only the g3 check of approximate discovery reads column codes;
	// exact discovery compares partition cardinalities.
	var colCodes [][]int
	if opts.MaxError != 0 {
		colCodes = make([][]int, n)
		for c := 0; c < n; c++ {
			colCodes[c], _ = r.Codes(c)
		}
	}

	// Level 1 plus the ∅ → A checks (constant columns).
	prev := make(map[attrset.Set]*node, n)
	var constCols attrset.Set
	for c := 0; c < n; c++ {
		if stopErr = pool.Err(); stopErr != nil {
			break
		}
		p := cache.Get(attrset.Single(c))
		prev[attrset.Single(c)] = &node{part: p, cand: fullSet}
		if r.Rows() > 0 && p.Cardinality() == 1 {
			results = append(results, fd.FD{LHS: attrset.Empty, RHS: attrset.Single(c), Schema: r.Schema()})
			constCols = constCols.Add(c)
		}
	}
	for _, info := range prev {
		info.cand = info.cand.Minus(constCols)
	}

	level := 1
	completed := 1 // singleton level is done once prev is seeded
	if stopErr != nil {
		results, prev, completed = nil, nil, 0
	}
	for len(prev) > 0 {
		if opts.MaxLHS > 0 && level > opts.MaxLHS+1 {
			break
		}
		levelSpan = run.Child(obs.KindPhase, fmt.Sprintf("level-%d", level))
		levelTimer := reg.Histogram("tane.level.seconds").Start()
		// Deterministic node order for fan-out and the pruning outputs.
		nodes := make([]attrset.Set, 0, len(prev))
		for x := range prev {
			nodes = append(nodes, x)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

		if level >= 2 {
			// Check X\A → A for each X at this level and A ∈ X ∩ C+(X).
			// Nodes are independent: each task reads shared partitions via
			// the cache and returns its FDs plus the updated C+(X).
			type validated struct {
				fds  []fd.FD
				cand attrset.Set
			}
			checked, err := engine.MapErr(pool, len(nodes), func(i int) validated {
				x := nodes[i]
				info := prev[x]
				cand := info.cand
				var fds []fd.FD
				rhs := x.Intersect(cand)
				rhs.Each(func(a int) {
					xa := x.Remove(a)
					pxa := cache.Get(xa)
					var valid bool
					if opts.MaxError == 0 {
						valid = partition.Refines(pxa, info.part)
					} else {
						valid = pxa.G3(colCodes[a]) <= opts.MaxError
					}
					if !valid {
						return
					}
					fds = append(fds, fd.FD{LHS: xa, RHS: attrset.Single(a), Schema: r.Schema()})
					cand = cand.Remove(a)
					if opts.MaxError == 0 {
						cand = cand.Minus(fullSet.Minus(x))
					}
				})
				return validated{fds: fds, cand: cand}
			})
			if err != nil {
				stopErr = err
				break
			}
			for i, x := range nodes {
				prev[x].cand = checked[i].cand
				results = append(results, checked[i].fds...)
			}
		}
		// Prune, then generate the next level via apriori + partition
		// products of cached sub-partitions.
		type pruned struct {
			fds  []fd.FD
			keep bool
		}
		outcome, err := engine.MapErr(pool, len(nodes), func(i int) pruned {
			x := nodes[i]
			info := prev[x]
			if info.cand.IsEmpty() {
				return pruned{}
			}
			if opts.MaxError == 0 && info.part.IsKey() {
				// TANE's key-pruning rule: before deleting a key node X,
				// output X → A for each A ∈ C+(X) \ X that no immediate
				// subset already determines (FDs are monotone in the LHS,
				// so immediate-subset minimality is full minimality). The
				// original paper phrases this via sibling C+ sets; those
				// may themselves have been pruned, so the check is done
				// directly on partitions.
				var fds []fd.FD
				info.cand.Minus(x).Each(func(a int) {
					minimal := true
					x.Each(func(b int) {
						if !minimal {
							return
						}
						sub := x.Remove(b)
						psub := cache.Get(sub)
						psuba := cache.Get(sub.Add(a))
						if partition.Refines(psub, psuba) {
							minimal = false
						}
					})
					if minimal {
						fds = append(fds, fd.FD{LHS: x, RHS: attrset.Single(a), Schema: r.Schema()})
					}
				})
				return pruned{fds: fds}
			}
			return pruned{keep: true}
		})
		if err != nil {
			stopErr = err
			break
		}
		var keep []attrset.Set
		for i, x := range nodes {
			results = append(results, outcome[i].fds...)
			if outcome[i].keep {
				keep = append(keep, x)
			}
		}
		cands := attrset.NextLevel(keep)
		nexts, err := engine.MapErr(pool, len(cands), func(i int) *node {
			x := cands[i]
			cand := fullSet
			x.ImmediateSubsets(func(sub attrset.Set) {
				if info, ok := prev[sub]; ok {
					cand = cand.Intersect(info.cand)
				}
			})
			if cand.IsEmpty() {
				return nil
			}
			return &node{part: cache.Get(x), cand: cand}
		})
		if err != nil {
			stopErr = err
			break
		}
		next := make(map[attrset.Set]*node)
		for i, x := range cands {
			if nexts[i] != nil {
				next[x] = nexts[i]
			}
		}
		prev = next
		completed = level
		level++
		levelTimer()
		levelSpan.SetAttr("nodes", len(nodes))
		levelSpan.SetAttr("next", len(next))
		levelSpan.End()
		reg.Counter("tane.levels.completed").Inc()
	}
	stop := engine.StopAt(levelSpan, stopErr).On(run)
	levelSpan.End()
	sortFDs(results)
	reg.Counter("tane.fds.found").Add(int64(len(results)))
	return Result{FDs: results, Stop: stop, Levels: completed}
}

func sortFDs(fds []fd.FD) {
	sort.Slice(fds, func(i, j int) bool {
		if fds[i].LHS != fds[j].LHS {
			return fds[i].LHS < fds[j].LHS
		}
		return fds[i].RHS < fds[j].RHS
	})
}
