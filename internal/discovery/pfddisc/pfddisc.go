// Package pfddisc implements the counting-based PFD discovery of Wang et
// al. [104] (paper §2.2.3): for candidate column pairs, compute the
// per-value majority probability and keep PFDs whose average meets the
// threshold. Two variants are provided, mirroring the paper's two
// algorithms: single-source discovery over one relation, and multi-source
// discovery that merges per-source PFDs weighted by source size — the
// pay-as-you-go integration setting.
//
// The probability semantics follow De & Kambhampati ("Defining and Mining
// Functional Dependencies in Probabilistic Databases"): P(X → A) is the
// expected fraction of tuples whose A value agrees with the majority of
// their X-class — the "possible worlds" degree of satisfaction collapsed
// to per-class majority counting, which is what pfd.PFD.Probability
// computes.
package pfddisc

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"deptree/internal/attrset"
	"deptree/internal/deps/pfd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures PFD discovery.
type Options struct {
	// MinProb is the threshold p for keeping a PFD (default 0.8).
	MinProb float64
	// MaxLHS bounds determinant size (default 1; the original generates
	// per-column-pair PFDs, TANE-style lattice expansion is used above 1).
	MaxLHS int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MinProb == 0 {
		o.MinProb = 0.8
	}
	if o.MaxLHS == 0 {
		o.MaxLHS = 1
	}
	return o
}

// Result is a PFD discovery outcome; a Partial run covers a deterministic
// prefix of the level-wise candidate enumeration.
type Result struct {
	PFDs []pfd.PFD
	engine.Stop
	// Completed is the number of candidates checked.
	Completed int
}

// batch is the fixed MapBudget stripe width over candidates. Fixed so the
// truncation point is worker-independent.
const batch = 8

// DiscoverContext returns the PFDs X →_p Y with P(X → Y, r) ≥ p, X limited
// to MaxLHS attributes, Y a single attribute, sorted deterministically. It
// runs under a context and Options.Budget. The level-wise enumeration has
// no cross-candidate pruning (levels expand unconditionally), so the whole
// candidate list is enumerated up front and checked in one deterministic
// fan-out.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	n := r.Cols()
	if n == 0 || r.Rows() == 0 {
		return Result{}
	}
	type cand struct {
		x   attrset.Set
		a   int
		lhs *lhsCodes // nil when x is a single attribute
	}
	var cands []cand
	level := attrset.Singletons(n)
	for size := 1; size <= opts.MaxLHS && len(level) > 0; size++ {
		for _, x := range level {
			var lhs *lhsCodes
			if size > 1 {
				lhs = &lhsCodes{x: x}
				lhs.left.Store(int32(n - size))
			}
			for a := 0; a < n; a++ {
				if !x.Has(a) {
					cands = append(cands, cand{x, a, lhs})
				}
			}
		}
		level = attrset.NextLevel(level)
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "pfddisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("candidates", len(cands))
	defer run.End()

	// Every column is dictionary-encoded once per run and every
	// multi-attribute LHS composed once; the candidates share the codes
	// read-only and each check borrows a kernel, so its scratch arrays
	// are reused across the candidates a worker checks.
	enc := encodeColumns(r)
	kernels := sync.Pool{New: func() any { return new(pfd.Kernel) }}
	checkSpan := run.Child(obs.KindPhase, "probability-check")
	hits, done, err := engine.MapBudget(pool, len(cands), batch, func(i int) bool {
		c := cands[i]
		x, xCard := enc.codes[c.x.First()], enc.cards[c.x.First()]
		if c.lhs != nil {
			x, xCard = c.lhs.get(enc)
		}
		a := c.a
		k := kernels.Get().(*pfd.Kernel)
		prob := k.Probability(x, xCard, enc.codes[a], enc.cards[a])
		kernels.Put(k)
		if c.lhs != nil {
			c.lhs.done()
		}
		return prob >= opts.MinProb
	})
	checkSpan.SetAttr("completed", done)
	checkSpan.End()
	reg.Counter("pfddisc.candidates.checked").Add(int64(done))

	var out []pfd.PFD
	for i := 0; i < done; i++ {
		if hits[i] {
			out = append(out, pfd.PFD{LHS: cands[i].x, RHS: attrset.Single(cands[i].a), MinProb: opts.MinProb, Schema: r.Schema()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LHS != out[j].LHS {
			return out[i].LHS < out[j].LHS
		}
		return out[i].RHS < out[j].RHS
	})
	reg.Counter("pfddisc.pfds.valid").Add(int64(len(out)))
	return Result{PFDs: out, Completed: done, Stop: engine.StopAt(run, err)}
}

// SourceProbability is the per-source probability of one FD, used by the
// multi-source merge.
type SourceProbability struct {
	// Rows is the source size (the merge weight).
	Rows int
	// Prob is P(X → Y) within the source.
	Prob float64
}

// MergeSources combines per-source probabilities into a single PFD
// probability, weighting each source by its tuple count — the paper's
// second algorithm, which merges PFDs obtained from each source instead of
// merging the data.
func MergeSources(sources []SourceProbability) float64 {
	total := 0
	sum := 0.0
	for _, s := range sources {
		total += s.Rows
		sum += float64(s.Rows) * s.Prob
	}
	if total == 0 {
		return 1
	}
	return sum / float64(total)
}

// DiscoverMultiSource splits the relation by a source column, discovers the
// probability of X → A per source, and keeps PFDs whose merged probability
// meets the threshold. X ranges over single attributes excluding the source
// column.
func DiscoverMultiSource(r *relation.Relation, sourceCol int, opts Options) []pfd.PFD {
	opts = opts.withDefaults()
	n := r.Cols()
	if n == 0 || r.Rows() == 0 {
		return nil
	}
	// Split by source value and encode each source's columns once.
	codes, card := r.Codes(sourceCol)
	subs := make([]*relation.Relation, card)
	encs := make([]columns, card)
	for s := range subs {
		subs[s] = r.Select(func(row int) bool { return codes[row] == s })
		encs[s] = encodeColumns(subs[s])
	}
	var k pfd.Kernel
	var out []pfd.PFD
	for x := 0; x < n; x++ {
		if x == sourceCol {
			continue
		}
		for a := 0; a < n; a++ {
			if a == x || a == sourceCol {
				continue
			}
			probs := make([]SourceProbability, len(subs))
			for s, enc := range encs {
				prob := k.Probability(enc.codes[x], enc.cards[x], enc.codes[a], enc.cards[a])
				probs[s] = SourceProbability{Rows: subs[s].Rows(), Prob: prob}
			}
			if MergeSources(probs) >= opts.MinProb {
				out = append(out, pfd.PFD{LHS: attrset.Single(x), RHS: attrset.Single(a), MinProb: opts.MinProb, Schema: r.Schema()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LHS != out[j].LHS {
			return out[i].LHS < out[j].LHS
		}
		return out[i].RHS < out[j].RHS
	})
	return out
}

// columns is a per-column dictionary encoding of one relation: the code
// per row and the number of distinct codes, as relation.Codes returns.
type columns struct {
	codes [][]int
	cards []int
}

func encodeColumns(r *relation.Relation) columns {
	enc := columns{codes: make([][]int, r.Cols()), cards: make([]int, r.Cols())}
	for c := range enc.codes {
		enc.codes[c], enc.cards[c] = r.Codes(c)
	}
	return enc
}

// lhsCodes holds the codes of one multi-attribute LHS: the pairwise
// composition of its columns' codes, equal to relation.GroupCodes over
// x. The first of its candidates to be checked composes them; the last
// drops them. Its candidates are contiguous and MapBudget checks one
// batch at a time, so only the LHSes of about one batch are held at once.
type lhsCodes struct {
	x     attrset.Set
	once  sync.Once
	codes []int
	card  int
	left  atomic.Int32 // candidates not yet checked
}

func (l *lhsCodes) get(enc columns) ([]int, int) {
	l.once.Do(func() {
		cols := l.x.Cols()
		l.codes, l.card = enc.codes[cols[0]], enc.cards[cols[0]]
		for _, c := range cols[1:] {
			l.codes, l.card = relation.ComposeCodes(l.codes, enc.codes[c])
		}
	})
	return l.codes, l.card
}

func (l *lhsCodes) done() {
	if l.left.Add(-1) == 0 {
		l.codes = nil
	}
}
