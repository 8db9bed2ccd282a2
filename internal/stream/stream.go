// Package stream implements incremental streaming discovery: a Session
// owns one relation fed by append batches (relation.Appender) and keeps
// a discoverer's ruleset current across batches without re-running
// discovery from scratch.
//
// The design rests on one monotonicity fact: for every dependency class
// served here (exact FDs, set-based ODs, lexicographic ODs), appending
// rows can only BREAK rules — a violating pair survives every later
// append, so valid(r after batch) ⊆ valid(r before batch). Incremental
// maintenance therefore decomposes into
//
//  1. delta refinement — per-attribute-set partition.Refiners absorb the
//     batch in O(delta + touched classes) and report exactly which
//     classes changed;
//  2. demotion — each held rule is re-decided against the touched
//     classes (or delta-involving pairs) only; untouched state cannot
//     create a violation;
//  3. bounded re-discovery — a demoted minimal rule seeds a level-wise
//     search over its strict supersets (FDs) or one-column LHS
//     extensions (lexicographic ODs); set-based ODs need no re-discovery
//     at all because their valid set only shrinks.
//
// All re-discovery fans out through engine.Pool/MapBudget with the
// repo's established prefix semantics: a budget-truncated sync commits a
// deterministic, worker-count-independent prefix (demotions always
// commit — they are monotone — and additions commit level by level), the
// unresolved seeds are retained, and the next batch or an explicit
// Revalidate retries idempotently. After every completed sync the held
// ruleset is byte-identical to what a from-scratch registry run over the
// same rows would print (the differential tests assert exactly that).
package stream

import (
	"context"
	"errors"
	"fmt"

	"deptree/internal/discovery/registry"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// ErrNotIncremental marks an algorithm without an append-aware engine.
var ErrNotIncremental = errors.New("stream: algorithm has no incremental engine")

// Options configures a Session. Incremental revalidation is exact-only:
// approximate modes (g3 budgets, sampling) are not monotone under
// appends, so callers exposing those knobs must reject them before
// creating a session.
type Options struct {
	// Workers fans re-discovery checks out across goroutines; as
	// everywhere in the repo, the output is identical for any value.
	Workers int
	// Budget bounds each sync (per-batch), not the session lifetime. An
	// exhausted budget yields a Partial BatchResult; the session retains
	// its unresolved seeds and the next AppendBatch or Revalidate
	// continues from them.
	Budget engine.Budget
	// Limits bounds ingestion exactly like the CSV readers (row ceiling,
	// field bytes); a rejected batch leaves the session untouched.
	Limits relation.Limits
	// Obs optionally receives engine metrics; nil is a no-op.
	Obs *obs.Registry
}

// exec passes o's knobs down as an engine.Exec; Budget stays per sync.
func (o Options) exec() engine.Exec {
	return engine.Exec{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs}
}

// BatchResult reports one AppendBatch (or Revalidate) outcome.
type BatchResult struct {
	// Seq is the number of accepted non-empty batches so far.
	Seq int
	// Rows is this batch's row count; TotalRows the relation's.
	Rows      int
	TotalRows int
	// Fingerprint is the chained content fingerprint of the relation
	// state (relation.Appender).
	Fingerprint string
	// Lines is the current ruleset, rendered by deps.Lines exactly as the
	// registry renders a from-scratch run over the same rows.
	Lines []string
	// Added/Removed are the ruleset diff against the previous batch.
	Added   []string
	Removed []string
	// Stop is how the sync ended. A Partial sync's Lines are a sound
	// subset (survivors plus committed re-discoveries) and the session
	// expects a retry.
	engine.Stop
}

// incEngine is one algorithm's append-aware revalidation engine. Init
// seeds it with a from-scratch run over the relation's current rows;
// Sync folds rows the engine has not yet ingested and revalidates. Both
// report how they ended as an engine.Stop; a partial Init leaves the
// engine unseeded for a later retry, a partial Sync retains its seeds.
type incEngine interface {
	Init(ctx context.Context, r *relation.Relation, opts Options) engine.Stop
	Sync(ctx context.Context, r *relation.Relation, opts Options) engine.Stop
	Lines() []string
}

// newEngine maps an algorithm name to its incremental engine, nil if the
// algorithm has none. It is the one list of streamable algorithms:
// Supported and Algorithms read it, and through them the CLI and the
// HTTP stream route.
func newEngine(algo string) incEngine {
	switch algo {
	case "tane", "fastfd":
		return &fdEngine{algo: algo}
	case "od":
		return &odEngine{}
	case "lexod":
		return &lexEngine{}
	}
	return nil
}

// Supported reports whether algo has an incremental engine.
func Supported(algo string) bool { return newEngine(algo) != nil }

// Algorithms lists the algorithms with an incremental engine, in the
// registry's order.
func Algorithms() []string {
	var out []string
	for _, a := range registry.Names() {
		if Supported(a) {
			out = append(out, a)
		}
	}
	return out
}

// Session is one incremental discovery stream: a relation, its appender
// and one algorithm's engine. Not safe for concurrent use; callers
// serialize batches (the HTTP layer holds a per-session lock).
type Session struct {
	algo   string
	opts   Options
	app    *relation.Appender
	eng    incEngine
	inited bool
	lines  []string
}

// NewSession creates an empty session for algo over schema.
func NewSession(algo string, schema *relation.Schema, opts Options) (*Session, error) {
	eng := newEngine(algo)
	if eng == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotIncremental, algo)
	}
	r := relation.New("stream", schema)
	return &Session{algo: algo, opts: opts, app: relation.NewAppender(r, opts.Limits), eng: eng}, nil
}

// Algo returns the session's algorithm name.
func (s *Session) Algo() string { return s.algo }

// Relation returns the underlying relation (owned by the session).
func (s *Session) Relation() *relation.Relation { return s.app.Relation() }

// Schema returns the session's schema.
func (s *Session) Schema() *relation.Schema { return s.app.Relation().Schema() }

// Rows returns the current row count.
func (s *Session) Rows() int { return s.app.Rows() }

// Fingerprint returns the chained fingerprint of the current state.
func (s *Session) Fingerprint() string { return s.app.Fingerprint() }

// Lines returns the current ruleset (a copy).
func (s *Session) Lines() []string { return append([]string(nil), s.lines...) }

// SetRun overrides the per-sync workers and budget (the HTTP layer maps
// per-request knobs through this before each batch).
func (s *Session) SetRun(workers int, budget engine.Budget) {
	s.opts.Workers = workers
	s.opts.Budget = budget
}

// AppendBatch ingests one batch and brings the ruleset current. The
// batch is all-or-nothing: a validation error (width, kind, limits)
// leaves relation, fingerprint and ruleset untouched. A Partial result
// commits demotions and a deterministic prefix of re-discoveries; the
// caller retries via another AppendBatch or Revalidate.
func (s *Session) AppendBatch(ctx context.Context, rows [][]relation.Value) (BatchResult, error) {
	fp, err := s.app.AppendBatch(rows)
	if err != nil {
		return BatchResult{}, err
	}
	r := s.app.Relation()
	// One run span per sync, the last to end, so a trace says why a
	// partial sync stopped wherever inside the engine the budget ran out.
	span := s.opts.Obs.StartSpan(obs.KindRun, "stream.sync")
	var stop engine.Stop
	if !s.inited {
		stop = s.eng.Init(ctx, r, s.opts)
		s.inited = !stop.Partial
	} else {
		stop = s.eng.Sync(ctx, r, s.opts)
	}
	stop.On(span)
	span.End()
	old := s.lines
	s.lines = append([]string(nil), s.eng.Lines()...)
	added, removed := diffLines(old, s.lines)
	return BatchResult{
		Seq:         s.app.Batches(),
		Rows:        len(rows),
		TotalRows:   r.Rows(),
		Fingerprint: fp,
		Lines:       append([]string(nil), s.lines...),
		Added:       added,
		Removed:     removed,
		Stop:        stop,
	}, nil
}

// Revalidate retries a partial sync without new rows (the chaos-recovery
// path: cancel mid-batch, then resume). On a clean session it is a
// cheap no-op returning the current state.
func (s *Session) Revalidate(ctx context.Context) (BatchResult, error) {
	return s.AppendBatch(ctx, nil)
}

// diffLines computes the set difference between two rulesets, preserving
// each side's order.
func diffLines(old, new []string) (added, removed []string) {
	prev := make(map[string]bool, len(old))
	for _, l := range old {
		prev[l] = true
	}
	cur := make(map[string]bool, len(new))
	for _, l := range new {
		cur[l] = true
	}
	for _, l := range new {
		if !prev[l] {
			added = append(added, l)
		}
	}
	for _, l := range old {
		if !cur[l] {
			removed = append(removed, l)
		}
	}
	return added, removed
}
