package jobs

import (
	"sync"

	"deptree/internal/wal"
)

// RecordType enumerates the event-sourced transitions a store holds.
type RecordType string

const (
	// RecSubmit creates a job (spec, fingerprint, idempotency key).
	RecSubmit RecordType = "submit"
	// RecStart marks one execution attempt beginning.
	RecStart RecordType = "start"
	// RecRetry marks an attempt that failed transiently and will rerun.
	RecRetry RecordType = "retry"
	// RecResult sets a terminal state, with the result payload for
	// done/partial.
	RecResult RecordType = "result"
	// RecCancel records a client cancellation request.
	RecCancel RecordType = "cancel"
)

// Record is one appended state transition. The WAL writes each record
// in one internal/wal frame, in the binary field order Fields declares
// (the JSON tags read logs written before it); replay folds them back
// into jobs in Seq order. Wall-clock times are deliberately absent —
// replay must be deterministic, and the API's informational timestamps
// live only in memory.
type Record struct {
	Type RecordType `json:"type"`
	// ID names the job every record but submit refers back to.
	ID string `json:"id"`
	// Seq is the submission sequence number (submit records only); it
	// fixes the re-enqueue order across restarts.
	Seq int64 `json:"seq,omitempty"`
	// Spec, Fingerprint, IdemKey ride on submit records.
	Spec        *Spec  `json:"spec,omitempty"`
	Fingerprint string `json:"fp,omitempty"`
	IdemKey     string `json:"idem,omitempty"`
	// CacheHit marks a submit answered from the result cache; such a
	// submit carries the cached Result and no CSV, and folds as done.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Attempt is the 1-based attempt number (start/retry records).
	Attempt int `json:"attempt,omitempty"`
	// State is the terminal state a result record sets.
	State State `json:"state,omitempty"`
	// Result is the payload for done/partial result records and for
	// cache-hit submit records.
	Result *Result `json:"result,omitempty"`
	// Reason is the failure/retry reason token.
	Reason string `json:"reason,omitempty"`
}

// RecordKind marks jobs records in the WAL.
func (*Record) RecordKind() wal.Kind { return wal.KindJobs }

// Fields declares the record's on-disk field order (see wal.Codec).
// Spec.Rel is never written.
func (r *Record) Fields(c *wal.Codec) {
	c.String((*string)(&r.Type))
	c.String(&r.ID)
	c.Int64(&r.Seq)
	wal.Optional(c, &r.Spec, specFields)
	c.String(&r.Fingerprint)
	c.String(&r.IdemKey)
	c.Bool(&r.CacheHit)
	c.Int(&r.Attempt)
	c.String((*string)(&r.State))
	wal.Optional(c, &r.Result, resultFields)
	c.String(&r.Reason)
}

func specFields(c *wal.Codec, s *Spec) {
	c.String(&s.Kind)
	c.String(&s.Algo)
	c.String(&s.CSV)
	c.String(&s.FDs)
	c.String(&s.FD)
	c.Float64(&s.MaxErr)
	c.Int(&s.SampleRows)
	c.Int64(&s.SampleSeed)
	c.Int(&s.Workers)
	c.Int64(&s.TimeoutMs)
	c.Int64(&s.MaxTasks)
}

func resultFields(c *wal.Codec, r *Result) {
	c.Strings(&r.Lines)
	c.String(&r.Report)
	c.String(&r.CSV)
	c.Strings(&r.Changes)
	c.Bool(&r.Partial)
	c.String(&r.Reason)
}

// ErrStoreClosed is returned by Append/Sync after Close. It is the
// shared wal.ErrClosed sentinel.
var ErrStoreClosed = wal.ErrClosed

// Store persists job state transitions. Implementations must be safe
// for concurrent use; Append durability is backend-defined (the memory
// store survives nothing, the WAL store survives process death for
// every returned Append and OS death for every Sync).
type Store interface {
	// Append durably adds one record.
	Append(rec Record) error
	// Sync flushes any batched durability work (fsync for the WAL).
	Sync() error
	// Replay returns every live record in append order. Called once,
	// before the first Append.
	Replay() ([]Record, error)
	// Compact atomically replaces the record history with the given
	// snapshot (the manager's minimal re-derivation of current state).
	Compact(snapshot []Record) error
	// Close releases the store; the WAL syncs first.
	Close() error
}

// FaultHook is the chaos seam on the memory store: installed with
// MemStore.SetFaultHook, it observes every Append and Sync and may
// return an error to inject a write fault. Production code never
// installs one; the WAL store's faults come from a fault-injecting
// fsx.FS.
type FaultHook func(op string, rec Record) error

// MemStore is the in-memory Store: a record slice behind a mutex. It
// gives the job service its full semantics minus durability — a process
// restart starts empty.
type MemStore struct {
	mu     sync.Mutex
	recs   []Record
	closed bool
	fault  FaultHook
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// SetFaultHook installs a chaos fault hook (nil uninstalls).
func (m *MemStore) SetFaultHook(h FaultHook) {
	m.mu.Lock()
	m.fault = h
	m.mu.Unlock()
}

func (m *MemStore) Append(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if m.fault != nil {
		if err := m.fault("append", rec); err != nil {
			return err
		}
	}
	m.recs = append(m.recs, rec)
	return nil
}

func (m *MemStore) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if m.fault != nil {
		if err := m.fault("sync", Record{}); err != nil {
			return err
		}
	}
	return nil
}

func (m *MemStore) Replay() ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, len(m.recs))
	copy(out, m.recs)
	return out, nil
}

func (m *MemStore) Compact(snapshot []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	m.recs = append([]Record(nil), snapshot...)
	return nil
}

func (m *MemStore) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}
