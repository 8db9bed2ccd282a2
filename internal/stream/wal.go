// Stream WAL: crash-safe persistence for streaming sessions. The log
// records session creations and accepted batches; replaying it through
// fresh Sessions reproduces every relation, chained fingerprint and
// ruleset bit for bit, which is what lets an HTTP stream session survive
// a server restart. It is a wal.Store of WALRecord — the shared framed
// log and its one binary record codec, with torn-tail repair, typed
// corruption, quarantine and reopen-and-verify built there once — and
// fsyncs every append. What is the stream package's own is the record
// shape, its field order (WALRecord.Fields) and its cell codec.
//
// Cells are encoded with relation.Value.Key — the injective canonical
// form the dictionary coders and the chained fingerprint are built on.
// A CSV re-encode would conflate NULL with the empty string and re-
// format floats, silently forking the fingerprint chain on replay.
package stream

import (
	"fmt"
	"strconv"
	"strings"

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

// RecordKind marks stream records in the WAL.
func (*WALRecord) RecordKind() wal.Kind { return wal.KindStream }

// Fields declares the record's on-disk field order (see wal.Codec).
// Cells stay Value.Key strings, stored raw.
func (r *WALRecord) Fields(c *wal.Codec) {
	c.String(&r.Op)
	c.String(&r.Session)
	c.String(&r.Algo)
	c.Strings(&r.Names)
	c.Ints(&r.Kinds)
	c.Int(&r.Seq)
	wal.Slice(c, &r.Cells, (*wal.Codec).Strings)
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
// queue, so group commit buys nothing here. Replay, Reopen, Close and
// the torn-tail and quarantine counters are the wal.Store's.
type WAL struct {
	*wal.Store[WALRecord, *WALRecord]
}

// OpenWAL opens (creating if absent) the framed log at path on the real
// filesystem. Creation fsyncs the parent directory, so a crash right
// after cannot lose the log file itself.
func OpenWAL(path string) (*WAL, error) {
	return OpenWALWith(path, WALOptions{})
}

// OpenWALWith opens the log with explicit options.
func OpenWALWith(path string, opts WALOptions) (*WAL, error) {
	st, err := wal.OpenStore[WALRecord](path, wal.Options{FS: opts.FS, Quarantine: opts.Quarantine, SyncEvery: 1})
	if err != nil {
		return nil, err
	}
	return &WAL{st}, nil
}

// AppendCreate logs a session creation.
func (w *WAL) AppendCreate(session, algo string, schema *relation.Schema) error {
	rec := WALRecord{Op: "create", Session: session, Algo: algo}
	for i := 0; i < schema.Len(); i++ {
		at := schema.Attr(i)
		rec.Names = append(rec.Names, at.Name)
		rec.Kinds = append(rec.Kinds, int(at.Kind))
	}
	return w.Append(rec)
}

// AppendBatch logs one accepted batch.
func (w *WAL) AppendBatch(session string, seq int, rows [][]relation.Value) error {
	return w.Append(WALRecord{Op: "batch", Session: session, Seq: seq, Cells: EncodeRows(rows)})
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
