// fdEngine: incremental exact-FD revalidation for tane and fastfd. Both
// discoverers emit the same minimal singleton-RHS FD set in the same
// sort order, so one engine serves both; only Init's from-scratch seed
// run differs.
//
// Demotion is local: an exact FD X→A held before the batch can only
// break inside a class of π_X that received new rows, and because rows
// are ascending within a class the new rows form the class tail — each
// sync checks just those tails against the class representative, O(delta)
// per rule after the shared refinement.
//
// Re-discovery is the classic level-wise argument run from the demoted
// seeds. A new minimal X→A must strictly contain a demoted seed Y→A with
// every intermediate Y ⊂ W ⊂ X invalid (were some W valid, X would not
// be minimal — validity is antitone in the rows, so W valid now implies
// W valid before, contradicting Y's prior minimality). The BFS therefore
// expands only invalid sets, skips candidates covered by a held rule,
// and commits additions level by level: same-size sets cannot contain
// each other and all smaller levels are settled first, so every commit
// is minimal at commit time — and stays minimal forever, because its
// proper subsets can only become "more invalid" as rows arrive. That is
// what makes a budget-truncated sync safely resumable: survivors and
// committed additions are final, and the retained seeds regenerate the
// rest deterministically.
package stream

import (
	"context"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps"
	"deptree/internal/deps/fd"
	"deptree/internal/discovery/fastfd"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// fdSeedBatch is the fixed MapBudget stripe for re-discovery validity
// checks — fixed so the truncation point is worker-count-independent.
const fdSeedBatch = 8

type fdEngine struct {
	algo string // "tane" or "fastfd"
	// ready gates the incremental path: false (after a complete Init)
	// means the relation is empty or too wide for attrset, and every
	// Sync falls back to a full re-run — correct, just not incremental.
	ready    bool
	ingested int // rows folded into the refiners
	held     []fd.FD
	colRef   []*partition.Refiner
	// setRef holds one refiner per multi-attribute held LHS, created
	// lazily (a rule added by re-discovery gets its refiner — and one
	// full validity check — on the next sync) and pruned when the last
	// rule over that LHS goes away.
	setRef map[attrset.Set]*partition.Refiner
	cache  *engine.PartitionCache
	// seeds are demoted minimal FDs pending re-discovery, per RHS
	// column; they survive partial syncs.
	seeds map[int]map[attrset.Set]bool
}

func (e *fdEngine) Lines() []string { return deps.Lines(e.held) }

func (e *fdEngine) Init(ctx context.Context, r *relation.Relation, opts Options) engine.Stop {
	var fds []fd.FD
	switch e.algo {
	case "tane":
		res := tane.DiscoverContext(ctx, r, tane.Options{Exec: opts.exec()})
		if res.Partial {
			return res.Stop
		}
		fds = res.FDs
	default:
		res := fastfd.DiscoverContext(ctx, r, fastfd.Options{Exec: opts.exec()})
		if res.Partial {
			return res.Stop
		}
		fds = res.FDs
	}
	e.held = fds
	e.colRef, e.setRef, e.cache, e.seeds = nil, nil, nil, nil
	e.ingested = r.Rows()
	e.ready = r.Rows() > 0 && r.Cols() > 0 && r.Cols() <= attrset.MaxAttrs
	if !e.ready {
		return engine.Stop{}
	}
	e.colRef = make([]*partition.Refiner, r.Cols())
	e.cache = engine.NewPartitionCache(r, opts.Budget.MaxCacheBytes)
	e.cache.SetObserver(opts.Obs)
	for c := 0; c < r.Cols(); c++ {
		e.colRef[c] = partition.NewRefiner(r, attrset.Single(c))
		// Seed the cache's singleton entries so every later Upgrade
		// refreshes them from the refiners in place instead of evicting.
		e.cache.Get(attrset.Single(c))
	}
	e.setRef = map[attrset.Set]*partition.Refiner{}
	e.seeds = map[int]map[attrset.Set]bool{}
	return engine.Stop{}
}

func (e *fdEngine) Sync(ctx context.Context, r *relation.Relation, opts Options) engine.Stop {
	if !e.ready {
		// Fallback: re-run from scratch (empty seed relation, or wider
		// than attrset can address — exactly what the registry would do).
		return e.Init(ctx, r, opts)
	}
	if n := r.Rows(); n > e.ingested {
		old := e.ingested
		for _, ref := range e.colRef {
			ref.AppendRefine(r, old)
		}
		for _, ref := range e.setRef {
			ref.AppendRefine(r, old)
		}
		// Singletons upgrade in place from the refiners; multi-attribute
		// memos are dropped and rebuilt lazily as products of the
		// refreshed singletons if re-discovery needs them.
		e.cache.Upgrade(func(x attrset.Set, _ *partition.Partition) *partition.Partition {
			if x.Len() == 1 {
				return e.colRef[x.First()].Partition()
			}
			return nil
		})
		e.ingested = n
		var kept []fd.FD
		// Refiners created during this loop have not been through an
		// AppendRefine, so their Touched() is empty — a second rule over
		// the same LHS must take the full check, not the vacuous tails
		// path.
		fresh := map[attrset.Set]bool{}
		for _, f := range e.held {
			if e.stillValid(r, f, old, fresh) {
				kept = append(kept, f)
			} else {
				a := f.RHS.First()
				if e.seeds[a] == nil {
					e.seeds[a] = map[attrset.Set]bool{}
				}
				e.seeds[a][f.LHS] = true
			}
		}
		e.held = kept
	}
	if len(e.seeds) == 0 {
		e.pruneRefiners()
		return engine.Stop{}
	}
	return e.rediscover(ctx, r, opts)
}

// stillValid re-decides one held FD against the last batch: only the
// delta tails of the touched classes of π_LHS can hide a fresh
// violation. A rule whose LHS refiner does not exist yet (added by a
// previous sync's re-discovery) gets a fresh refiner and one full
// check — and so does every further rule sharing that LHS this sync
// (fresh), because the new refiner's Touched() is empty until its
// first AppendRefine.
func (e *fdEngine) stillValid(r *relation.Relation, f fd.FD, oldRows int, fresh map[attrset.Set]bool) bool {
	a := f.RHS.First()
	switch f.LHS.Len() {
	case 0:
		// ∅→A: the column must be constant.
		return e.colRef[a].Cardinality() <= 1
	case 1:
		return uniformTails(r, e.colRef[f.LHS.First()], a, oldRows)
	}
	ref, ok := e.setRef[f.LHS]
	if !ok {
		ref = partition.NewRefiner(r, f.LHS)
		e.setRef[f.LHS] = ref
		fresh[f.LHS] = true
		return uniformAll(r, ref.Partition(), a)
	}
	if fresh[f.LHS] {
		return uniformAll(r, ref.Partition(), a)
	}
	return uniformTails(r, ref, a, oldRows)
}

// uniformTails checks that in every class the refiner touched this
// batch, the appended rows (the ascending-row-order tail ≥ oldRows)
// agree with the class representative on column a. The old prefix of an
// extended class was uniform before (the rule held) and appends never
// merge classes, so this is a complete violation check.
func uniformTails(r *relation.Relation, ref *partition.Refiner, a, oldRows int) bool {
	p := ref.Partition()
	for _, ci := range ref.Touched() {
		rows := p.Class(ci)
		rep := r.Value(int(rows[0]), a)
		for k := len(rows) - 1; k >= 1; k-- {
			if int(rows[k]) < oldRows {
				break
			}
			if !relation.SameKey(r.Value(int(rows[k]), a), rep) {
				return false
			}
		}
	}
	return true
}

// uniformAll checks every class of p for agreement on column a (the
// one-time full check for a freshly created refiner). Stripped
// singletons are trivially uniform.
func uniformAll(r *relation.Relation, p *partition.Partition, a int) bool {
	for ci := 0; ci < p.NumClasses(); ci++ {
		rows := p.Class(ci)
		rep := r.Value(int(rows[0]), a)
		for k := 1; k < len(rows); k++ {
			if !relation.SameKey(r.Value(int(rows[k]), a), rep) {
				return false
			}
		}
	}
	return true
}

// rediscover runs the seeded level-wise search for each RHS with pending
// seeds. Completion clears that RHS's seeds; a budget stop keeps them
// and reports partial, with everything committed so far final.
func (e *fdEngine) rediscover(ctx context.Context, r *relation.Relation, opts Options) engine.Stop {
	pool := opts.exec().Pool(ctx)
	defer pool.Close()
	cols := r.Cols()
	rhs := make([]int, 0, len(e.seeds))
	for a := range e.seeds {
		rhs = append(rhs, a)
	}
	sort.Ints(rhs)
	for _, a := range rhs {
		aSet := attrset.Single(a)
		var heldRHS []attrset.Set
		for _, f := range e.held {
			if f.RHS == aSet {
				heldRHS = append(heldRHS, f.LHS)
			}
		}
		visited := map[attrset.Set]bool{}
		levels := map[int][]attrset.Set{}
		expand := func(y attrset.Set) {
			for b := 0; b < cols; b++ {
				if b == a || y.Has(b) {
					continue
				}
				cand := y.Add(b)
				if !visited[cand] {
					visited[cand] = true
					levels[cand.Len()] = append(levels[cand.Len()], cand)
				}
			}
		}
		for y := range e.seeds[a] {
			expand(y)
		}
		for lev := 1; lev < cols; lev++ {
			cands := levels[lev]
			if len(cands) == 0 {
				continue
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
			filtered := cands[:0]
			for _, x := range cands {
				covered := false
				for _, w := range heldRHS {
					if w.SubsetOf(x) {
						covered = true
						break
					}
				}
				if !covered {
					filtered = append(filtered, x)
				}
			}
			valid, done, err := engine.MapBudget(pool, len(filtered), fdSeedBatch, func(i int) bool {
				x := filtered[i]
				return partition.Refines(e.cache.Get(x), e.cache.Get(x.Union(aSet)))
			})
			for i := 0; i < done; i++ {
				x := filtered[i]
				if valid[i] {
					e.held = append(e.held, fd.FD{LHS: x, RHS: aSet, Schema: r.Schema()})
					heldRHS = append(heldRHS, x)
				} else {
					expand(x)
				}
			}
			if err != nil {
				sortFDs(e.held)
				return engine.StopAt(nil, err)
			}
		}
		delete(e.seeds, a)
	}
	sortFDs(e.held)
	e.pruneRefiners()
	return engine.Stop{}
}

// pruneRefiners drops multi-attribute refiners no held rule needs, so a
// stream that demotes rules over time sheds their O(|π|) state.
func (e *fdEngine) pruneRefiners() {
	for x := range e.setRef {
		needed := false
		for _, f := range e.held {
			if f.LHS == x {
				needed = true
				break
			}
		}
		if !needed {
			delete(e.setRef, x)
		}
	}
}

// sortFDs matches the shared output order of tane and fastfd.
func sortFDs(fds []fd.FD) {
	sort.Slice(fds, func(i, j int) bool {
		if fds[i].LHS != fds[j].LHS {
			return fds[i].LHS < fds[j].LHS
		}
		return fds[i].RHS < fds[j].RHS
	})
}
