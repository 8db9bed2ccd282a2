package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"deptree/internal/fsx"
	"deptree/internal/wal"
)

// WALOptions tunes the on-disk store.
type WALOptions struct {
	// SyncEvery fsyncs after this many appends (default 8). 1 makes
	// every Append a synchronous commit.
	SyncEvery int
	// SyncInterval bounds how long an unsynced append may sit in the OS
	// page cache before a background fsync (default 100ms; < 0
	// disables the background flusher — tests that inspect the file
	// synchronously use SyncEvery=1 instead).
	SyncInterval time.Duration
	// FS is the filesystem the log lives on (nil = the real OS). The
	// torture suite passes a fault-injecting fsx.FS.
	FS fsx.FS
	// Quarantine opts replay into recovering from mid-log corruption by
	// sidecarring the damaged suffix instead of refusing to start; see
	// wal.Options.Quarantine.
	Quarantine bool
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 8
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	return o
}

// WALStore is the durable Store: a typed codec over the shared
// checksummed record log in internal/wal, with group-committed fsync.
// Every Append issues the OS write before returning — a SIGKILLed
// process loses nothing it acknowledged — and fsync is batched (every
// SyncEvery records, and at least every SyncInterval) so a power cut
// loses at most one batch, never corrupts the prefix. Replay
// distinguishes a clean torn tail (truncated and counted) from mid-log
// corruption, which surfaces as a typed *wal.ErrCorruptRecord instead
// of silently truncating acknowledged records — unless Quarantine is
// set, which sidecars the damage and keeps the verified prefix.
type WALStore struct {
	log  *wal.Log
	opts WALOptions

	mu     sync.Mutex
	dirty  int // appends since last fsync
	closed bool
	fault  FaultHook

	appends int64
	syncs   int64

	flushStop chan struct{}
	flushDone chan struct{}
}

// ErrNotReplayed is returned by Append before Replay has run: until the
// log's contents are verified (and any torn tail truncated), an append
// could land after damage and be unreachable. It is the shared
// wal.ErrNotReplayed sentinel.
var ErrNotReplayed = wal.ErrNotReplayed

// OpenWAL opens (creating if absent) the framed log at path. Creation
// fsyncs the parent directory, so a crash immediately after cannot lose
// the log file.
func OpenWAL(path string, opts WALOptions) (*WALStore, error) {
	opts = opts.withDefaults()
	l, err := wal.Open(path, wal.Options{FS: opts.FS, Quarantine: opts.Quarantine})
	if err != nil {
		return nil, err
	}
	w := &WALStore{log: l, opts: opts}
	if opts.SyncInterval > 0 {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// SetFaultHook installs a chaos fault hook (nil uninstalls).
func (w *WALStore) SetFaultHook(h FaultHook) {
	w.mu.Lock()
	w.fault = h
	w.mu.Unlock()
}

// flushLoop is the group-commit ticker: an unsynced batch never waits
// longer than SyncInterval for its fsync.
func (w *WALStore) flushLoop() {
	defer close(w.flushDone)
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-t.C:
			w.Sync()
		}
	}
}

func (w *WALStore) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: wal append: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrStoreClosed
	}
	if w.fault != nil {
		if ferr := w.fault("append", rec); ferr != nil {
			return Transient{ferr}
		}
	}
	if err := w.log.Append(payload, false); err != nil {
		if errors.Is(err, ErrNotReplayed) {
			// Not a write fault: retrying cannot help before Replay.
			return err
		}
		return Transient{fmt.Errorf("jobs: wal append: %w", err)}
	}
	w.appends++
	w.dirty++
	if w.dirty >= w.opts.SyncEvery {
		return w.syncLocked()
	}
	return nil
}

func (w *WALStore) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrStoreClosed
	}
	if w.dirty == 0 {
		return nil
	}
	if w.fault != nil {
		if ferr := w.fault("sync", Record{}); ferr != nil {
			return Transient{ferr}
		}
	}
	return w.syncLocked()
}

func (w *WALStore) syncLocked() error {
	if err := w.log.Sync(); err != nil {
		return Transient{fmt.Errorf("jobs: wal sync: %w", err)}
	}
	w.dirty = 0
	w.syncs++
	return nil
}

// Replay verifies and decodes the log. A clean torn tail is truncated
// and counted (TruncatedTail); mid-log corruption returns the typed
// *wal.ErrCorruptRecord with the damaged offset (or is quarantined when
// the store was opened with Quarantine). A frame that passes its
// checksum but fails to decode is a writer bug, reported as an error
// with its offset — the checksum guarantees those are the bytes that
// were acknowledged.
func (w *WALStore) Replay() ([]Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrStoreClosed
	}
	var recs []Record
	err := w.log.Replay(func(payload []byte) error {
		var rec Record
		if derr := json.Unmarshal(payload, &rec); derr != nil {
			return fmt.Errorf("jobs: wal replay: undecodable record: %w", derr)
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// Compact atomically replaces the log with the snapshot (temp file,
// fsync, rename, directory fsync — all inside wal.ReplaceWith).
func (w *WALStore) Compact(snapshot []Record) error {
	payloads := make([][]byte, 0, len(snapshot))
	for _, rec := range snapshot {
		p, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrStoreClosed
	}
	if err := w.log.ReplaceWith(payloads); err != nil {
		return err
	}
	w.dirty = 0
	return nil
}

// TruncatedTail reports how many torn tails Replay truncated.
func (w *WALStore) TruncatedTail() int { return w.log.TornTail() }

// Quarantined reports how many corrupt suffixes replay sidecared
// (always 0 unless the store was opened with Quarantine).
func (w *WALStore) Quarantined() int { return w.log.Quarantined() }

// Stats reports append/sync totals for observability.
func (w *WALStore) Stats() (appends, syncs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs
}

func (w *WALStore) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	if w.dirty > 0 {
		w.syncLocked()
	}
	w.closed = true
	err := w.log.Close()
	w.mu.Unlock()
	if w.flushStop != nil {
		close(w.flushStop)
		<-w.flushDone
	}
	return err
}
