// Package fastdc implements FASTDC (Chu, Ilyas & Papotti [19], paper
// §4.3.4): denial-constraint discovery via a predicate space, evidence
// sets, and minimal set covers.
//
// The pipeline: (1) build the space of two-tuple predicates over the
// schema ({=, ≠} everywhere, plus {<, ≤, >, ≥} and cross-column
// comparisons on numeric attributes); (2) compute the evidence set of each
// tuple pair — the predicates it satisfies; (3) every minimal set of
// predicates that "covers" all evidence sets (hits their complements)
// denies an impossible combination, yielding a valid minimal DC. The
// approximate variant A-FASTDC allows a bounded fraction of violating
// pairs, and C-FASTDC adds constant predicates.
package fastdc

import (
	"context"
	"sort"

	"deptree/internal/deps/dc"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures FASTDC.
type Options struct {
	// MaxPredicates bounds the number of predicates in a DC (default 3).
	MaxPredicates int
	// MaxViolations is the A-FASTDC budget: the fraction of tuple pairs a
	// DC may deny and still be reported (0 = exact FASTDC).
	MaxViolations float64
	// CrossColumn enables tα.A vs tβ.B predicates between numeric columns
	// of the same kind.
	CrossColumn bool
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MaxPredicates == 0 {
		o.MaxPredicates = 3
	}
	return o
}

// Result is a FASTDC run's outcome. The DCs valid on r are fixed by the
// evidence of every tuple pair, and a DC mined from some of the pairs may
// be violated by another, so only a complete evidence scan is searched
// for covers: a Partial result, whether the stop landed in the evidence
// scan or in the cover search, carries no DCs — the empty prefix of the
// full answer.
type Result struct {
	DCs []dc.DC
	// Partial marks a run truncated by budget, cancellation or panic.
	Partial bool
	// Reason is the stable stop token ("deadline", "max-tasks", ...).
	Reason string
}

// DiscoverContext runs FASTDC and returns minimal valid DCs, sorted by
// rendered form for determinism, under a context and Options.Budget.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	if r.Rows() < 2 {
		return Result{}
	}
	reg := opts.Obs
	run := reg.StartSpan(obs.KindRun, "fastdc")
	run.SetAttr("rows", r.Rows())
	defer run.End()

	space := PredicateSpace(r, opts.CrossColumn)
	run.SetAttr("predicates", len(space))
	reg.Counter("fastdc.predicates").Add(int64(len(space)))
	pool := opts.Pool(ctx)
	defer pool.Close()

	stopped := func(err error) Result {
		reason := engine.Reason(err)
		run.SetAttr("stop", reason)
		return Result{Partial: true, Reason: reason}
	}
	evSpan := run.Child(obs.KindPhase, "evidence-scan")
	evTimer := reg.Histogram("fastdc.evidence.seconds").Start()
	evidence, counts, err := evidenceScan(r, space, pool)
	evTimer()
	evSpan.SetAttr("sets", len(evidence))
	evSpan.End()
	if err != nil {
		return stopped(err)
	}
	reg.Counter("fastdc.evidence.sets").Add(int64(len(evidence)))
	// The cover search runs on the submitting goroutine, outside the
	// pool's task accounting, and polls the pool for a deadline,
	// cancellation or a panic elsewhere in the run.
	coverSpan := run.Child(obs.KindPhase, "cover-search")
	coverTimer := reg.Histogram("fastdc.covers.seconds").Start()
	covers, err := minimalCovers(space, evidence, counts, opts, pool)
	coverTimer()
	coverSpan.SetAttr("covers", len(covers))
	coverSpan.End()
	if err != nil {
		return stopped(err)
	}
	out := make([]dc.DC, 0, len(covers))
	for _, cover := range covers {
		preds := make([]dc.Predicate, 0, len(cover))
		for _, pi := range cover {
			preds = append(preds, space[pi])
		}
		out = append(out, dc.DC{Predicates: preds, Schema: r.Schema()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	reg.Counter("fastdc.dcs.found").Add(int64(len(out)))
	return Result{DCs: out}
}

// PredicateSpace builds the two-tuple predicate space: for every column,
// tα.A {=, ≠} tβ.A; for numeric columns additionally {<, ≤, >, ≥}; and,
// when crossColumn is set, tα.A vs tβ.B for distinct numeric columns.
func PredicateSpace(r *relation.Relation, crossColumn bool) []dc.Predicate {
	var space []dc.Predicate
	numericOps := []dc.Op{dc.OpEq, dc.OpNe, dc.OpLt, dc.OpLe, dc.OpGt, dc.OpGe}
	stringOps := []dc.Op{dc.OpEq, dc.OpNe}
	for c := 0; c < r.Cols(); c++ {
		ops := stringOps
		if r.Schema().Attr(c).Kind != relation.KindString {
			ops = numericOps
		}
		for _, op := range ops {
			space = append(space, dc.P(dc.Attr(dc.Alpha, c), op, dc.Attr(dc.Beta, c)))
		}
	}
	if crossColumn {
		for c1 := 0; c1 < r.Cols(); c1++ {
			if r.Schema().Attr(c1).Kind == relation.KindString {
				continue
			}
			for c2 := 0; c2 < r.Cols(); c2++ {
				if c1 == c2 || r.Schema().Attr(c2).Kind == relation.KindString {
					continue
				}
				for _, op := range []dc.Op{dc.OpLt, dc.OpGt} {
					space = append(space, dc.P(dc.Attr(dc.Alpha, c1), op, dc.Attr(dc.Beta, c2)))
				}
			}
		}
	}
	return space
}

// evidenceKey is a bitset over predicate indices (≤ 64 predicates per
// word; a slice of words covers larger spaces).
type evidenceKey string

// EvidenceSets computes the distinct evidence sets over all ordered tuple
// pairs plus their multiplicities. The evidence set of a pair is the set
// of space predicates it satisfies.
func EvidenceSets(r *relation.Relation, space []dc.Predicate) ([][]bool, []int) {
	sets, counts, _ := evidenceStripe(nil, r, space, 0, r.Rows())
	return sets, counts
}

// evidenceStripes is the fixed stripe count of the evidence scan: the
// stripe boundaries and the order stripes are merged in depend only on
// the row count, so the evidence sets are identical for every worker
// count.
const evidenceStripes = 64

// evidenceScan stripes the first-tuple index range across the pool; each
// stripe deduplicates locally, and the stripes are merged in row order.
// On a budget, cancellation or panic stop it returns no evidence and the
// stopping error.
func evidenceScan(r *relation.Relation, space []dc.Predicate, pool *engine.Pool) ([][]bool, []int, error) {
	rows := r.Rows()
	stripes := min(evidenceStripes, rows)
	type stripeOut struct {
		sets   [][]bool
		counts []int
		keys   []evidenceKey
	}
	parts, err := engine.MapErr(pool, stripes, func(s int) stripeOut {
		lo := s * rows / stripes
		hi := (s + 1) * rows / stripes
		sets, counts, keys := evidenceStripe(pool, r, space, lo, hi)
		return stripeOut{sets: sets, counts: counts, keys: keys}
	})
	if err != nil {
		return nil, nil, err
	}
	seen := map[evidenceKey]int{}
	var sets [][]bool
	var counts []int
	for _, part := range parts {
		for i, k := range part.keys {
			if idx, ok := seen[k]; ok {
				counts[idx] += part.counts[i]
				continue
			}
			seen[k] = len(sets)
			sets = append(sets, part.sets[i])
			counts = append(counts, part.counts[i])
		}
	}
	return sets, counts, nil
}

// evidenceStripe computes the deduplicated evidence sets of the ordered
// pairs (i, j) with lo <= i < hi, j ranging over all rows. It also returns
// the dedupe key per set so stripes can be merged. Every pair ticks a
// Poller of pool (nil outside a run), so a stop ends the stripe's task
// in the middle of the stripe.
func evidenceStripe(pool *engine.Pool, r *relation.Relation, space []dc.Predicate, lo, hi int) ([][]bool, []int, []evidenceKey) {
	seen := map[evidenceKey]int{}
	var sets [][]bool
	var counts []int
	var keys []evidenceKey
	buf := make([]bool, len(space))
	keyBuf := make([]byte, (len(space)+7)/8)
	poll := engine.NewPoller(pool)
	for i := lo; i < hi; i++ {
		for j := 0; j < r.Rows(); j++ {
			poll.Tick()
			if i == j {
				continue
			}
			for b := range keyBuf {
				keyBuf[b] = 0
			}
			for p, pred := range space {
				sat := pred.Eval(r, i, j)
				buf[p] = sat
				if sat {
					keyBuf[p/8] |= 1 << (p % 8)
				}
			}
			k := evidenceKey(keyBuf)
			if idx, ok := seen[k]; ok {
				counts[idx]++
				continue
			}
			seen[k] = len(sets)
			sets = append(sets, append([]bool(nil), buf...))
			counts = append(counts, 1)
			keys = append(keys, k)
		}
	}
	return sets, counts, keys
}

// minimalCovers finds the minimal predicate sets P such that for every
// evidence set E (up to the A-FASTDC violation budget), some p ∈ P is NOT
// in E — then ¬(∧P) holds on the instance. Depth-first search with
// minimality pruning against found covers. The search space is
// exponential in the predicate count, so every expansion counts on a
// Poller of pool; a poll that finds the run stopped abandons the search
// and returns the pool's error.
func minimalCovers(space []dc.Predicate, evidence [][]bool, counts []int, opts Options, pool *engine.Pool) ([][]int, error) {
	totalPairs := 0
	for _, c := range counts {
		totalPairs += c
	}
	budget := int(opts.MaxViolations * float64(totalPairs))
	var covers [][]int
	isSupersetOfCover := func(sel []int) bool {
		for _, c := range covers {
			if containsAll(sel, c) {
				return true
			}
		}
		return false
	}
	poll := engine.NewPoller(pool)
	var err error
	var dfs func(sel []int, startAt int)
	dfs = func(sel []int, startAt int) {
		if err != nil {
			return
		}
		if err = poll.Err(1); err != nil {
			return
		}
		// Count uncovered pairs: evidence sets containing ALL selected
		// predicates (the denied conjunction can be satisfied).
		violating := 0
		for e, ev := range evidence {
			all := true
			for _, p := range sel {
				if !ev[p] {
					all = false
					break
				}
			}
			if all {
				violating += counts[e]
			}
		}
		if len(sel) > 0 && violating <= budget {
			if !isSupersetOfCover(sel) {
				covers = append(covers, append([]int(nil), sel...))
			}
			return
		}
		if len(sel) >= opts.MaxPredicates {
			return
		}
		for p := startAt; p < len(space); p++ {
			// Skip predicates on the same operand pair as an already
			// selected one with a redundant relationship (same column pair
			// and operator family) — a light-weight stand-in for the
			// implication-based pruning of the original.
			next := append(sel, p)
			if isSupersetOfCover(next) {
				continue
			}
			dfs(next, p+1)
		}
	}
	dfs(nil, 0)
	if err != nil {
		return nil, err
	}
	// Final minimality pass: drop covers containing smaller covers.
	var minimal [][]int
	for i, c := range covers {
		keep := true
		for j, d := range covers {
			if i != j && len(d) < len(c) && containsAll(c, d) {
				keep = false
				break
			}
		}
		if keep {
			minimal = append(minimal, c)
		}
	}
	return minimal, nil
}

// containsAll reports whether sorted slice a contains all elements of b.
func containsAll(a, b []int) bool {
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i == len(a) || a[i] != x {
			return false
		}
	}
	return true
}

// ConstantPredicates builds the C-FASTDC constant predicate space: tα.A op
// c for the frequent constants of each column (at least minFreq
// occurrences).
func ConstantPredicates(r *relation.Relation, minFreq int) []dc.Predicate {
	var out []dc.Predicate
	for c := 0; c < r.Cols(); c++ {
		// Dictionary-encode the column and count per code instead of per key
		// string. A code's representative is its last occurrence, matching
		// the map-overwrite semantics of the string-keyed implementation
		// (Key-equal values may still differ as Value instances).
		codes, card := r.Codes(c)
		freq := make([]int, card)
		rep := make([]relation.Value, card)
		keys := make([]string, card)
		for row, code := range codes {
			v := r.Value(row, c)
			if freq[code] == 0 {
				keys[code] = v.Key()
			}
			freq[code]++
			rep[code] = v
		}
		order := make([]int, card)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
		ops := []dc.Op{dc.OpEq, dc.OpNe}
		if r.Schema().Attr(c).Kind != relation.KindString {
			ops = append(ops, dc.OpLt, dc.OpGt)
		}
		for _, code := range order {
			if freq[code] < minFreq {
				continue
			}
			for _, op := range ops {
				out = append(out, dc.P(dc.Attr(dc.Alpha, c), op, dc.Const(rep[code])))
			}
		}
	}
	return out
}
