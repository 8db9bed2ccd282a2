// Stream WAL: crash-safe persistence for streaming sessions — a typed
// codec over the shared checksummed record log in internal/wal. The log
// records session creations and accepted batches; replaying it through
// fresh Sessions reproduces every relation, chained fingerprint and
// ruleset bit for bit, which is what lets an HTTP stream session survive
// a server restart. The framed format replaces the old JSONL log's two
// worst behaviours: a mid-log bit flip now surfaces as a typed
// *wal.ErrCorruptRecord instead of silently truncating acknowledged
// batches, and records larger than bufio.Scanner's 64 MiB ceiling
// round-trip instead of erroring at replay after being acknowledged at
// append. A pre-framing JSONL log is rejected as corrupt.
//
// Cells are encoded with relation.Value.Key — the injective canonical
// form the dictionary coders and the chained fingerprint are built on.
// A CSV re-encode would conflate NULL with the empty string and re-
// format floats, silently forking the fingerprint chain on replay.
package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"deptree/internal/fsx"
	"deptree/internal/relation"
	"deptree/internal/wal"
)

// ErrWALNotReplayed is returned by appends before Replay has run: until
// the log's contents are verified, an append could land after damage
// and be unreachable. It is the shared wal.ErrNotReplayed sentinel,
// which the underlying wal.Log returns.
var ErrWALNotReplayed = wal.ErrNotReplayed

// WALRecord is one log entry: a session creation (Op "create", carrying
// the schema) or one accepted batch (Op "batch", carrying Key-encoded
// cells).
type WALRecord struct {
	Op      string     `json:"op"`
	Session string     `json:"session"`
	Algo    string     `json:"algo,omitempty"`
	Names   []string   `json:"names,omitempty"`
	Kinds   []int      `json:"kinds,omitempty"`
	Seq     int        `json:"seq,omitempty"`
	Cells   [][]string `json:"cells,omitempty"`
}

// WALOptions tunes OpenWALWith.
type WALOptions struct {
	// FS is the filesystem the log lives on (nil = the real OS).
	FS fsx.FS
	// Quarantine opts replay into sidecarring mid-log corruption
	// instead of refusing; see wal.Options.Quarantine.
	Quarantine bool
}

// WAL is the durable session log. Every append is written and fsynced
// before returning — batch acceptance is low-rate compared to the jobs
// queue, so group commit buys nothing here.
type WAL struct {
	mu   sync.Mutex
	path string
	opts WALOptions
	log  *wal.Log
}

// OpenWAL opens (creating if absent) the framed log at path on the real
// filesystem. Creation fsyncs the parent directory, so a crash right
// after cannot lose the log file itself.
func OpenWAL(path string) (*WAL, error) {
	return OpenWALWith(path, WALOptions{})
}

// OpenWALWith opens the log with explicit options.
func OpenWALWith(path string, opts WALOptions) (*WAL, error) {
	l, err := wal.Open(path, wal.Options{FS: opts.FS, Quarantine: opts.Quarantine})
	if err != nil {
		return nil, err
	}
	return &WAL{path: path, opts: opts, log: l}, nil
}

// Replay streams every verified record to fn in log order, truncates a
// clean torn tail, and arms the WAL for appends. Mid-log corruption
// returns the typed *wal.ErrCorruptRecord (or is quarantined when the
// WAL was opened with Quarantine); fn returning an error aborts the
// replay.
func (w *WAL) Replay(fn func(rec WALRecord) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return errors.New("stream: wal closed")
	}
	return w.log.Replay(func(payload []byte) error {
		var rec WALRecord
		if derr := json.Unmarshal(payload, &rec); derr != nil {
			return fmt.Errorf("stream: wal replay: undecodable record: %w", derr)
		}
		if fn != nil {
			return fn(rec)
		}
		return nil
	})
}

// Reopen closes the underlying log, reopens it from disk and re-verifies
// its frames without re-delivering records. It is the bounded recovery
// step the server attempts once after an append failure before declaring
// the stream subsystem poisoned: a transient write error (brief ENOSPC,
// a hiccuping volume) heals here; real damage fails verification and the
// poisoning stands.
func (w *WAL) Reopen() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log != nil {
		w.log.Close()
		w.log = nil
	}
	l, err := wal.Open(w.path, wal.Options{FS: w.opts.FS, Quarantine: w.opts.Quarantine})
	if err != nil {
		return err
	}
	if err := l.Replay(nil); err != nil {
		l.Close()
		return err
	}
	w.log = l
	return nil
}

// TruncatedTail reports torn tails truncated by Replay.
func (w *WAL) TruncatedTail() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return 0
	}
	return w.log.TornTail()
}

// Quarantined reports corrupt suffixes sidecared by Replay (always 0
// unless opened with Quarantine).
func (w *WAL) Quarantined() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return 0
	}
	return w.log.Quarantined()
}

// AppendCreate logs a session creation.
func (w *WAL) AppendCreate(session, algo string, schema *relation.Schema) error {
	rec := WALRecord{Op: "create", Session: session, Algo: algo}
	for i := 0; i < schema.Len(); i++ {
		at := schema.Attr(i)
		rec.Names = append(rec.Names, at.Name)
		rec.Kinds = append(rec.Kinds, int(at.Kind))
	}
	return w.append(rec)
}

// AppendBatch logs one accepted batch.
func (w *WAL) AppendBatch(session string, seq int, rows [][]relation.Value) error {
	rec := WALRecord{Op: "batch", Session: session, Seq: seq, Cells: EncodeRows(rows)}
	return w.append(rec)
}

func (w *WAL) append(rec WALRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("stream: wal append: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return errors.New("stream: wal closed")
	}
	return w.log.Append(payload, true)
}

// Close closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return nil
	}
	err := w.log.Close()
	w.log = nil
	return err
}

// SchemaOf reconstructs a WAL create record's schema.
func (rec WALRecord) SchemaOf() (*relation.Schema, error) {
	if len(rec.Names) != len(rec.Kinds) {
		return nil, fmt.Errorf("stream: wal create record: %d names, %d kinds", len(rec.Names), len(rec.Kinds))
	}
	attrs := make([]relation.Attribute, len(rec.Names))
	for i := range rec.Names {
		attrs[i] = relation.Attribute{Name: rec.Names[i], Kind: relation.Kind(rec.Kinds[i])}
	}
	return relation.NewSchema(attrs...), nil
}

// RowsOf decodes a WAL batch record's cells back into values.
func (rec WALRecord) RowsOf() ([][]relation.Value, error) {
	rows := make([][]relation.Value, len(rec.Cells))
	for i, cells := range rec.Cells {
		row := make([]relation.Value, len(cells))
		for c, k := range cells {
			v, err := decodeKey(k)
			if err != nil {
				return nil, fmt.Errorf("stream: wal batch row %d col %d: %w", i, c, err)
			}
			row[c] = v
		}
		rows[i] = row
	}
	return rows, nil
}

// EncodeRows Key-encodes a batch's cells for the WAL.
func EncodeRows(rows [][]relation.Value) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for c, v := range row {
			cells[c] = v.Key()
		}
		out[i] = cells
	}
	return out
}

// decodeKey inverts relation.Value.Key. A decoded number comes back as a
// float value whatever the column kind — the Appender accepts numeric
// values cross-kind and both Key and Compare read the numeric payload
// only, so replayed fingerprints and rulesets match the originals.
func decodeKey(k string) (relation.Value, error) {
	switch {
	case k == "\x00null":
		return relation.Null(relation.KindString), nil
	case strings.HasPrefix(k, "s:"):
		return relation.String(k[2:]), nil
	case strings.HasPrefix(k, "n:"):
		f, err := strconv.ParseFloat(k[2:], 64)
		if err != nil {
			return relation.Value{}, fmt.Errorf("bad numeric key %q: %w", k, err)
		}
		return relation.Float(f), nil
	}
	return relation.Value{}, fmt.Errorf("bad cell key %q", k)
}
