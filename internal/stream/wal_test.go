package stream

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deptree/internal/relation"
	"deptree/internal/wal"
)

func walSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Attribute{Name: "n", Kind: relation.KindFloat},
		relation.Attribute{Name: "s", Kind: relation.KindString},
	)
}

// TestWALAppendBeforeReplay: the torn-tail gate.
func TestWALAppendBeforeReplay(t *testing.T) {
	w, err := OpenWAL(filepath.Join(t.TempDir(), "s.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendCreate("s1", "od", walSchema()); !errors.Is(err, ErrWALNotReplayed) {
		t.Fatalf("append before replay: %v", err)
	}
	if err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCreate("s1", "od", walSchema()); err != nil {
		t.Fatal(err)
	}
}

// TestWALRoundTrip logs a session and replays it through a fresh
// Session, asserting identical fingerprints — the cell encoding is
// injective through Key, including null and the numeric/string split.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	rows := [][]relation.Value{
		{relation.Float(1.5), relation.String("x")},
		{relation.Int(2), relation.String("")}, // empty string != null
		{relation.Null(relation.KindFloat), relation.Null(relation.KindString)},
		{relation.Float(-0.0), relation.String("s:tricky\x1f")}, // key-prefix lookalikes
	}
	live, err := NewSession("od", walSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.AppendBatch(context.Background(), rows)
	if err != nil {
		t.Fatal(err)
	}

	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCreate("s1", "od", walSchema()); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch("s1", 1, rows); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var replayed *Session
	err = w2.Replay(func(rec WALRecord) error {
		switch rec.Op {
		case "create":
			schema, serr := rec.SchemaOf()
			if serr != nil {
				return serr
			}
			if schema.Len() != 2 || schema.Attr(0).Name != "n" || schema.Attr(1).Kind != relation.KindString {
				t.Fatalf("replayed schema %v", schema)
			}
			replayed, serr = NewSession(rec.Algo, schema, Options{})
			return serr
		case "batch":
			decoded, derr := rec.RowsOf()
			if derr != nil {
				return derr
			}
			_, derr = replayed.AppendBatch(context.Background(), decoded)
			return derr
		}
		t.Fatalf("unexpected op %q", rec.Op)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed == nil {
		t.Fatal("create record not replayed")
	}
	if replayed.Fingerprint() != res.Fingerprint {
		t.Fatalf("replayed fingerprint %s != live %s", replayed.Fingerprint(), res.Fingerprint)
	}
	if !reflect.DeepEqual(replayed.Lines(), live.Lines()) {
		t.Fatalf("replayed ruleset %q != live %q", replayed.Lines(), live.Lines())
	}
}

// TestWALTornTail: a record cut mid-line is truncated on replay and the
// log accepts appends on the clean prefix afterwards.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCreate("s1", "od", walSchema()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.EncodeFrame([]byte(`{"op":"batch","session":"s1","cells":[["n:1"]]}`))
	f.Write(frame[:len(frame)-9]) // crash mid-frame
	f.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var ops []string
	if err := w2.Replay(func(rec WALRecord) error { ops = append(ops, rec.Op); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, []string{"create"}) || w2.TruncatedTail() != 1 {
		t.Fatalf("ops %v truncated %d", ops, w2.TruncatedTail())
	}
	// The torn bytes are gone from disk: a new append starts on a clean
	// line boundary.
	if err := w2.AppendBatch("s1", 1, [][]relation.Value{{relation.Float(1), relation.String("x")}}); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	ops = nil
	if err := w3.Replay(func(rec WALRecord) error { ops = append(ops, rec.Op); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, []string{"create", "batch"}) {
		t.Fatalf("ops after repair %v", ops)
	}
}

// TestDecodeKeyErrors: garbage cells fail loudly instead of silently
// becoming values.
func TestDecodeKeyErrors(t *testing.T) {
	for _, bad := range []string{"", "x:1", "n:notanumber"} {
		rec := WALRecord{Op: "batch", Cells: [][]string{{bad}}}
		if _, err := rec.RowsOf(); err == nil {
			t.Errorf("cell %q decoded without error", bad)
		}
	}
}

// TestWALMidLogFlipDetected is the regression for the silent-loss bug:
// the old JSONL log treated a mid-log bit flip exactly like a torn
// tail, silently dropping every acknowledged batch after it. The framed
// log must report a typed *wal.ErrCorruptRecord instead.
func TestWALMidLogFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Replay(nil)
	w.AppendCreate("s1", "od", walSchema())
	for seq := 1; seq <= 3; seq++ {
		if err := w.AppendBatch("s1", seq, [][]relation.Value{{relation.Float(float64(seq)), relation.String("x")}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(data) / 2
	f, _ := os.OpenFile(path, os.O_WRONLY, 0o644)
	f.Seek(int64(off), 0)
	f.Write([]byte{data[off] ^ 0x20})
	f.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rerr := w2.Replay(nil)
	var corrupt *wal.ErrCorruptRecord
	if !errors.As(rerr, &corrupt) {
		t.Fatalf("mid-log flip replay = %v, want *wal.ErrCorruptRecord", rerr)
	}
	if corrupt.Offset <= 0 || corrupt.Offset >= int64(len(data)) {
		t.Fatalf("corrupt offset %d out of range", corrupt.Offset)
	}
}

// TestWALOversizedRecordRoundTrips is the regression for the 64 MiB
// bufio.Scanner cliff: the old Replay errored with ErrTooLong on any
// record over 1<<26 bytes even though AppendBatch had acknowledged it.
// The framed log must round-trip any batch admission accepts.
func TestWALOversizedRecordRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~130 MiB")
	}
	path := filepath.Join(t.TempDir(), "s.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Replay(nil)
	big := strings.Repeat("v", 1<<26) // one 64 MiB cell -> record well past the old cliff
	rows := [][]relation.Value{{relation.Float(1), relation.String(big)}}
	if err := w.AppendBatch("s1", 1, rows); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var got [][]relation.Value
	if err := w2.Replay(func(rec WALRecord) error {
		rows, rerr := rec.RowsOf()
		got = rows
		return rerr
	}); err != nil {
		t.Fatalf("oversized record replay: %v", err)
	}
	if len(got) != 1 || got[0][1].Key() != "s:"+big {
		t.Fatal("oversized record did not round-trip byte-identical")
	}
}

// TestWALReopenRecovers: Reopen re-verifies the log from disk and arms
// appends — the bounded recovery step the server tries before
// poisoning the stream subsystem.
func TestWALReopenRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Replay(nil)
	if err := w.AppendCreate("s1", "od", walSchema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Reopen(); err != nil {
		t.Fatal(err)
	}
	// Armed immediately after Reopen: no fresh Replay needed.
	if err := w.AppendBatch("s1", 1, [][]relation.Value{{relation.Float(1), relation.String("x")}}); err != nil {
		t.Fatal(err)
	}
	var ops []string
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Replay(func(rec WALRecord) error { ops = append(ops, rec.Op); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, []string{"create", "batch"}) {
		t.Fatalf("ops after reopen %v", ops)
	}
}

// TestWALReopenRefusesCorruption: Reopen must fail verification on a
// damaged log, so the server's one-shot recovery cannot resurrect a
// WAL whose history is untrustworthy.
func TestWALReopenRefusesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Replay(nil)
	w.AppendCreate("s1", "od", walSchema())
	w.AppendBatch("s1", 1, [][]relation.Value{{relation.Float(1), relation.String("x")}})

	data, _ := os.ReadFile(path)
	off := len(data) - 10
	f, _ := os.OpenFile(path, os.O_WRONLY, 0o644)
	f.Seek(int64(off), 0)
	f.Write([]byte{data[off] ^ 0x01})
	f.Close()

	rerr := w.Reopen()
	var corrupt *wal.ErrCorruptRecord
	if !errors.As(rerr, &corrupt) {
		t.Fatalf("reopen over corruption = %v, want *wal.ErrCorruptRecord", rerr)
	}
	if err := w.AppendBatch("s1", 2, [][]relation.Value{{relation.Float(2), relation.String("y")}}); err == nil {
		t.Fatal("append accepted after failed reopen")
	}
}
