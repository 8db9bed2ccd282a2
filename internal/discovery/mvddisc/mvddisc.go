// Package mvddisc implements MVD discovery after Savnik & Flach [82]
// (paper §2.6.3): a search of the hypothesis space of MVDs X ↠ Y ordered
// by the generalization relation. The top-down strategy enumerates
// candidate LHS sets level-wise from the most general (smallest X) to more
// specific ones, pruning specializations of already-valid MVDs (every MVD
// implied by a found one is skipped), and validates candidates against the
// relation.
package mvddisc

import (
	"context"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps/mvd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures MVD discovery.
type Options struct {
	// MaxLHS bounds |X| (default 2).
	MaxLHS int
	// MaxSpurious turns the search into AMVD discovery [59] (§2.6.6): an
	// MVD is accepted when its spurious-tuple ratio is ≤ the threshold.
	// 0 keeps exact MVD discovery.
	MaxSpurious float64
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MaxLHS == 0 {
		o.MaxLHS = 2
	}
	return o
}

// Result is an MVD discovery outcome; a Partial run covers a
// deterministic prefix of the (X, Y) candidate enumeration.
type Result struct {
	MVDs []mvd.MVD
	engine.Stop
	// Completed is the number of candidates validated.
	Completed int
}

// batch is the fixed MapBudget stripe width over Y candidates within one
// LHS group. Fixed so the truncation point is worker-independent.
const batch = 8

// DiscoverContext returns valid, non-trivial MVDs X ↠ Y with |X| ≤ MaxLHS,
// reporting only the most general ones: an MVD is skipped when it is
// implied by reflexivity/augmentation from a smaller found one (X' ⊆ X
// with Y equal modulo the extra X attributes), or when its complement form
// was already reported (X ↠ Y ≡ X ↠ R−X−Y).
//
// It runs under a context and Options.Budget. LHS groups run sequentially
// (found MVDs prune later, more specific candidates) while validation
// within one group fans out: the canonical-Y form (Y always contains
// rest.First()) means no same-group candidate can imply another — the
// complement Z lacks rest.First() and is never enumerated, and
// augmentation from a same-X find reduces to the identical candidate — so
// the parallel filter-then-validate pass is output-identical to the
// sequential scan.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	n := r.Cols()
	if n < 3 || r.Rows() == 0 {
		return Result{} // an MVD needs X, Y, Z all nonempty to be interesting
	}
	full := attrset.Full(n)
	var found []mvd.MVD
	reported := map[[2]attrset.Set]bool{}

	isImplied := func(x, y attrset.Set) bool {
		// Complement symmetry: X ↠ Y ⟺ X ↠ Z.
		z := full.Minus(x).Minus(y)
		if reported[[2]attrset.Set{x, y}] || reported[[2]attrset.Set{x, z}] {
			return true
		}
		// Augmentation from a more general found MVD: X' ↠ Y' with
		// X' ⊆ X and Y = Y' − X (the extra LHS attributes absorbed).
		for _, m := range found {
			if m.LHS.SubsetOf(x) {
				if m.RHS.Minus(x) == y || full.Minus(m.LHS).Minus(m.RHS).Minus(x) == y {
					return true
				}
			}
		}
		return false
	}

	var lhsSets []attrset.Set
	full.Subsets(func(s attrset.Set) {
		if s.Len() >= 1 && s.Len() <= opts.MaxLHS && n-s.Len() >= 2 {
			lhsSets = append(lhsSets, s)
		}
	})
	sort.Slice(lhsSets, func(i, j int) bool {
		if lhsSets[i].Len() != lhsSets[j].Len() {
			return lhsSets[i].Len() < lhsSets[j].Len()
		}
		return lhsSets[i] < lhsSets[j]
	})

	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "mvddisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("lhs-groups", len(lhsSets))
	defer run.End()
	searchSpan := run.Child(obs.KindPhase, "candidate-validation")

	completed := 0
	var stopErr error
	for _, x := range lhsSets {
		rest := full.Minus(x)
		// Enumerate Y ⊂ rest, nonempty, proper (Z nonempty), canonical form
		// (Y containing the smallest attribute of rest) to halve the space.
		first := rest.First()
		var ys []attrset.Set
		rest.ProperNonemptySubsets(func(y attrset.Set) {
			if y.Has(first) {
				ys = append(ys, y)
			}
		})
		sort.Slice(ys, func(i, j int) bool {
			if ys[i].Len() != ys[j].Len() {
				return ys[i].Len() < ys[j].Len()
			}
			return ys[i] < ys[j]
		})
		// Filter against cross-group implication first; the surviving
		// candidates are mutually independent and validate in parallel.
		var cands []attrset.Set
		for _, y := range ys {
			if !isImplied(x, y) {
				cands = append(cands, y)
			}
		}
		hits, done, err := engine.MapBudget(pool, len(cands), batch, func(i int) bool {
			m := mvd.MVD{LHS: x, RHS: cands[i], NumAttrs: n, Schema: r.Schema()}
			return m.SpuriousRatio(r) <= opts.MaxSpurious
		})
		completed += done
		for i := 0; i < done; i++ {
			if hits[i] {
				found = append(found, mvd.MVD{LHS: x, RHS: cands[i], NumAttrs: n, Schema: r.Schema()})
				reported[[2]attrset.Set{x, cands[i]}] = true
			}
		}
		if err != nil {
			stopErr = err
			break
		}
	}
	searchSpan.SetAttr("completed", completed)
	searchSpan.End()
	reg.Counter("mvddisc.candidates.checked").Add(int64(completed))
	reg.Counter("mvddisc.mvds.valid").Add(int64(len(found)))
	return Result{MVDs: found, Completed: completed, Stop: engine.StopAt(run, stopErr)}
}
