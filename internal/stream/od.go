// odEngine and lexEngine: incremental order-dependency revalidation.
//
// Set-based ODs are the easy case: validity is antitone in the rows and
// the candidate space is fixed (ordered column pairs), so the valid set
// only shrinks and no re-discovery ever happens. oddisc.Stream keeps
// per-column merge-maintained orders and re-decides each held OD against
// only the adjacent pairs involving appended rows; this engine is a thin
// adapter.
//
// Lexicographic ODs re-discover like FDs, but along the prefix chain:
// lexdisc outputs every valid (LHS list, marked RHS) whose proper LHS
// prefixes are all invalid, so when a held rule breaks, the only
// candidates that can newly enter the output are its one-column LHS
// extensions (their length-|LHS| prefix just became invalid; any rule
// with a still-valid shorter prefix stays implied). Extensions found
// invalid stay invalid forever, so seeds are cleared once their
// extensions have been checked. Demotion is localized to pairs involving
// appended rows — an old-old pair that violates now violated before.
package stream

import (
	"context"
	"sort"

	"deptree/internal/deps"
	"deptree/internal/deps/od"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/engine"
	"deptree/internal/relation"
)

type odEngine struct {
	st       *oddisc.Stream
	ingested int
}

func (e *odEngine) Lines() []string {
	if e.st == nil {
		return nil
	}
	return deps.Lines(oddisc.Minimal(e.st.Held()))
}

func (e *odEngine) Init(ctx context.Context, r *relation.Relation, opts Options) engine.Stop {
	st, res := oddisc.NewStream(ctx, r, oddisc.Options{Exec: opts.exec()})
	if st == nil {
		return res.Stop
	}
	e.st = st
	e.ingested = r.Rows()
	return engine.Stop{}
}

func (e *odEngine) Sync(ctx context.Context, r *relation.Relation, opts Options) engine.Stop {
	if e.st == nil {
		return e.Init(ctx, r, opts)
	}
	e.st.Ingest(e.ingested)
	e.ingested = r.Rows()
	_, res := e.st.Revalidate(ctx)
	return res.Stop
}

// lexMaxWidth mirrors lexdisc's default LHS width bound; the registry
// runs lexod with that default, and the differential tests pin the two
// against each other.
const lexMaxWidth = 2

// lexStripe is the fixed MapBudget stripe for extension checks,
// mirroring lexdisc's candidate stripe.
const lexStripe = 8

type lexSeed struct {
	lhs []od.Marked
	rhs od.Marked
}

type lexEngine struct {
	inited   bool
	ingested int
	cols     []int
	held     []od.LexOD
	seeds    []lexSeed
}

func (e *lexEngine) Lines() []string { return deps.Lines(e.held) }

func (e *lexEngine) Init(ctx context.Context, r *relation.Relation, opts Options) engine.Stop {
	res := oddisc.DiscoverLexContext(ctx, r, oddisc.LexOptions{Exec: opts.exec()})
	if res.Partial {
		return res.Stop
	}
	e.held = res.ODs
	e.seeds = nil
	e.cols = nil
	for c := 0; c < r.Cols(); c++ {
		if r.Schema().Attr(c).Kind != relation.KindString {
			e.cols = append(e.cols, c)
		}
	}
	e.ingested = r.Rows()
	e.inited = true
	return engine.Stop{}
}

func (e *lexEngine) Sync(ctx context.Context, r *relation.Relation, opts Options) engine.Stop {
	if !e.inited {
		return e.Init(ctx, r, opts)
	}
	if n := r.Rows(); n > e.ingested {
		old := e.ingested
		e.ingested = n
		var kept []od.LexOD
		for _, o := range e.held {
			if lexCleanTail(r, o, old) {
				kept = append(kept, o)
			} else if len(o.LHS) < lexMaxWidth {
				e.seeds = append(e.seeds, lexSeed{lhs: o.LHS, rhs: o.RHS[0]})
			}
			// A broken rule at full width has no extensions to offer;
			// it simply leaves the output, as it would from scratch.
		}
		e.held = kept
	}
	if len(e.seeds) == 0 {
		return engine.Stop{}
	}
	return e.rediscover(ctx, r, opts)
}

// rediscover checks the one-column LHS extensions of every pending seed.
// Completion clears the seeds (an invalid extension can never become
// valid later); a budget stop keeps them, with the committed additions
// final for the same antitone reason as in fdEngine.
func (e *lexEngine) rediscover(ctx context.Context, r *relation.Relation, opts Options) engine.Stop {
	pool := opts.exec().Pool(ctx)
	defer pool.Close()
	heldKey := make(map[string]bool, len(e.held))
	for _, o := range e.held {
		heldKey[o.String()] = true
	}
	var cands []od.LexOD
	for _, s := range e.seeds {
		for _, c := range e.cols {
			if c == s.rhs.Col || inMarkedList(s.lhs, c) {
				continue
			}
			lhs := append(append([]od.Marked(nil), s.lhs...), od.Marked{Col: c})
			o := od.LexOD{LHS: lhs, RHS: []od.Marked{s.rhs}, Schema: r.Schema()}
			if k := o.String(); !heldKey[k] {
				heldKey[k] = true
				cands = append(cands, o)
			}
		}
	}
	hits, done, err := engine.MapBudget(pool, len(cands), lexStripe, func(i int) bool {
		return oddisc.LexHolds(pool, r, cands[i])
	})
	for i := 0; i < done; i++ {
		if hits[i] {
			e.held = append(e.held, cands[i])
		}
	}
	sort.Slice(e.held, func(i, j int) bool { return e.held[i].String() < e.held[j].String() })
	if err == nil {
		e.seeds = nil
	}
	return engine.StopAt(nil, err)
}

func inMarkedList(ms []od.Marked, col int) bool {
	for _, m := range ms {
		if m.Col == col {
			return true
		}
	}
	return false
}

// lexCleanTail reports whether o has no violation among pairs involving
// a row ≥ oldRows. Old-old pairs were checked when the rule was last
// (re)validated and a lexicographic violation never heals under appends.
func lexCleanTail(r *relation.Relation, o od.LexOD, oldRows int) bool {
	n := r.Rows()
	for i := oldRows; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if o.ViolatedBy(r, i, j) || o.ViolatedBy(r, j, i) {
				return false
			}
		}
	}
	return true
}
