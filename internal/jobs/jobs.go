// Package jobs is the durable async job subsystem behind the serving
// layer: discovery (any registry algorithm), validation and repair runs
// submitted as jobs, executed on a bounded work queue, and persisted
// behind one Store interface so a process crash never silently loses
// work.
//
// The design is event-sourced: every state transition is one appended
// Record, and a Manager is just the fold of its store's records. The
// in-memory store keeps the records in a slice; the WAL store encodes
// each in the binary record codec inside one internal/wal frame, with
// batched fsync (wal.go). On restart the manager replays the store, re-enqueues every
// job that was queued or running at crash time in its original
// submission order, and serves completed results without recompute.
//
// Failure taxonomy (DESIGN.md "Job lifecycle, WAL format & crash
// recovery"):
//
//   - transient: panic-isolated task errors (engine.IsPanicReason) and
//     store write faults — retried with jittered exponential backoff up
//     to MaxAttempts, then terminal failed;
//   - backpressure: admission saturation — the job waits out the load
//     spike in the queue with growing (capped) backoff and burns no
//     retry budget, because a queue that fails jobs under the very load
//     it exists to absorb is no queue at all;
//   - terminal: malformed input (rejected at submit), run errors, and
//     budget exhaustion (deadline/max-tasks → the partial state, which
//     carries the same deterministic prefix the CLI prints);
//   - neither: a run cancelled by drain is re-queued, not failed — the
//     next process replays it from the WAL and re-runs it to the same
//     byte-identical result.
//
// Content-addressed dataset fingerprints (SHA-256 of the canonical CSV
// bytes) key a result cache: a complete (non-partial) result is cached
// under (fingerprint, kind, algo, params), so re-submitting discovery
// over an unchanged relation is a cache hit that never touches the
// queue.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"deptree/internal/relation"
)

// State is one job's lifecycle position: queued → running → {done,
// partial, failed, cancelled}. A drain or crash moves running back to
// queued (via WAL replay) instead of to a terminal state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"      // complete result
	StatePartial   State = "partial"   // budget-truncated deterministic prefix
	StateFailed    State = "failed"    // terminal error (retries exhausted or run error)
	StateCancelled State = "cancelled" // client-requested cancel
)

// Terminal reports whether the state is final; Wait unblocks on it and
// retries never leave it.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StatePartial, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Spec is one job's full submission: what to run and under which
// resolved budget. The serving layer resolves (clamps) the budget knobs
// at submit time and bakes them in, so a WAL replay after a crash
// re-runs the job under exactly the envelope the original admission
// granted.
type Spec struct {
	// Kind selects the runner: "discover", "validate" or "repair".
	Kind string `json:"kind"`
	// Algo is the registry discoverer name (discover only).
	Algo string `json:"algo,omitempty"`
	// CSV is the inline relation, exactly as submitted.
	CSV string `json:"csv"`
	// FDs is the ";"-separated FD list (validate only).
	FDs string `json:"fds,omitempty"`
	// FD is the single FD spec (repair only).
	FD string `json:"fd,omitempty"`
	// MaxErr is the g3 budget for approximate FDs (tane only).
	MaxErr float64 `json:"maxerr,omitempty"`
	// SampleRows/SampleSeed select sample-then-verify discovery (discover
	// only, sampling-capable algorithms). Zero means full-relation mode,
	// which is also how pre-sampling WAL records replay.
	SampleRows int   `json:"sample_rows,omitempty"`
	SampleSeed int64 `json:"sample_seed,omitempty"`
	// Workers/TimeoutMs/MaxTasks are the resolved engine budget.
	Workers   int   `json:"workers,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	MaxTasks  int64 `json:"max_tasks,omitempty"`

	// Rel, when set, is CSV already parsed by the submitter. It lives
	// only in memory and never reaches a store: Submit fingerprints it
	// instead of parsing CSV again, the job hands it to each attempt,
	// and drops it at its terminal state. A job replayed from the WAL
	// runs without it and parses CSV itself. Runs must treat it as
	// read-only, because a retried attempt reuses it.
	Rel *relation.Relation `json:"-"`
}

// Fingerprint returns the content-addressed identity of the spec's
// dataset: the SHA-256 of the canonical CSV encoding (parse then
// re-encode), so two submissions of the same relation in different
// surface formatting share one fingerprint. A set Rel is hashed as is,
// without parsing CSV again. Unparsable CSV is an error: malformed input
// is a terminal submit-time rejection, never a queued job.
func (s Spec) Fingerprint() (string, error) {
	rel := s.Rel
	if rel == nil {
		var err error
		if rel, err = relation.ReadCSVAuto("job", []byte(s.CSV), relation.Limits{}); err != nil {
			return "", fmt.Errorf("jobs: fingerprint: %w", err)
		}
	}
	return FingerprintRelation(rel)
}

// FingerprintRelation is the dataset fingerprint of a parsed relation:
// its canonical CSV encoding streamed straight into SHA-256.
func FingerprintRelation(rel *relation.Relation) (string, error) {
	h := sha256.New()
	if err := relation.WriteCSV(rel, h); err != nil {
		return "", fmt.Errorf("jobs: fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CacheKey is the result-cache key for the spec under the given dataset
// fingerprint: everything that determines a *complete* run's output.
// Budget knobs (workers, timeout, max-tasks) are deliberately excluded —
// the engine's determinism contract makes complete output identical for
// any worker count, and only complete results are ever cached, so the
// budget cannot have bound. Sample knobs ARE included: a sampled run's
// complete output depends on which rows the (rows, seed) pair selected.
func (s Spec) CacheKey(fingerprint string) string {
	return strings.Join([]string{
		fingerprint, s.Kind, s.Algo,
		fmt.Sprintf("%g", s.MaxErr), s.FDs, s.FD,
		fmt.Sprintf("%d", s.SampleRows), fmt.Sprintf("%d", s.SampleSeed),
	}, "\x1f")
}

// Result is one finished run's payload, covering all three kinds: Lines
// for discover, Report for validate, CSV+Changes for repair. Partial
// and Reason mirror the engine's Result contract — a partial result is
// the deterministic budget-truncated prefix.
type Result struct {
	Lines   []string `json:"lines,omitempty"`
	Report  string   `json:"report,omitempty"`
	CSV     string   `json:"csv,omitempty"`
	Changes []string `json:"changes,omitempty"`
	Partial bool     `json:"partial,omitempty"`
	Reason  string   `json:"reason,omitempty"`
}

// Text renders the result as the CLI writes the same run to stdout: one
// dependency per line (discover), the validation report, or the
// repaired CSV, with the PARTIAL marker line when truncated. Repair
// changes are not part of it: the CLI logs them to stderr. A partial
// validation report already ends in its own marker, which names the
// rules it checked.
func (r Result) Text() string {
	var b strings.Builder
	for _, line := range r.Lines {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString(r.Report)
	b.WriteString(r.CSV)
	if r.Partial && r.Report == "" {
		fmt.Fprintf(&b, "PARTIAL: %s\n", r.Reason)
	}
	return b.String()
}

// Transient marks an error as retryable: the manager backs off and
// re-attempts instead of failing the job terminally, up to MaxAttempts.
// Store write faults wrap themselves in it.
type Transient struct{ Err error }

func (t Transient) Error() string { return "transient: " + t.Err.Error() }
func (t Transient) Unwrap() error { return t.Err }

// Backpressure marks an error as pure load-shedding (admission
// saturation): the manager re-queues the job and backs off — with a
// delay that grows while the saturation persists — without counting the
// attempt against MaxAttempts. A durable job must absorb a load spike,
// not fail terminally because of one.
type Backpressure struct{ Err error }

func (b Backpressure) Error() string { return "backpressure: " + b.Err.Error() }
func (b Backpressure) Unwrap() error { return b.Err }
