package jobs

import (
	"errors"
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

// WALStore is the durable Store: the shared record log of internal/wal
// holding one binary-encoded frame per Record (Record.Fields; frames
// of older logs holding JSON still replay), group-committed as WALOptions
// schedules it (see the wal package doc). Replay distinguishes a clean
// torn tail (truncated and counted by TornTail) from mid-log
// corruption, which surfaces as a typed *wal.ErrCorruptRecord instead
// of silently truncating acknowledged records — unless Quarantine is
// set, which sidecars the damage and keeps the verified prefix. What is
// the jobs package's own is the Store contract: write and sync failures
// come back Transient, and Replay returns the records as a slice.
type WALStore struct{ *wal.Store[Record, *Record] }

// ErrNotReplayed is returned by Append before Replay has run: until the
// log's contents are verified (and any torn tail truncated), an append
// could land after damage and be unreachable. It is the shared
// wal.ErrNotReplayed sentinel.
var ErrNotReplayed = wal.ErrNotReplayed

// OpenWAL opens (creating if absent) the framed log at path. Creation
// fsyncs the parent directory, so a crash immediately after cannot lose
// the log file.
func OpenWAL(path string, opts WALOptions) (*WALStore, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 8
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = 100 * time.Millisecond
	}
	st, err := wal.OpenStore[Record](path, wal.Options{
		FS: opts.FS, Quarantine: opts.Quarantine,
		SyncEvery: opts.SyncEvery, SyncInterval: opts.SyncInterval,
	})
	if err != nil {
		return nil, err
	}
	return &WALStore{st}, nil
}

// transient marks a failed write or fsync retryable. A closed store and
// an append before Replay are not write faults: retrying cannot help.
func transient(err error) error {
	if err == nil || errors.Is(err, ErrStoreClosed) || errors.Is(err, ErrNotReplayed) {
		return err
	}
	return Transient{err}
}

func (w *WALStore) Append(rec Record) error { return transient(w.Store.Append(rec)) }

func (w *WALStore) Sync() error { return transient(w.Store.Sync()) }

// Replay verifies and decodes the log (see wal.Store.Replay).
func (w *WALStore) Replay() ([]Record, error) {
	var recs []Record
	if err := w.Store.Replay(func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return recs, nil
}
