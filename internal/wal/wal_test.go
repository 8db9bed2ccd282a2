package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deptree/internal/fsx"
)

func openMem(t *testing.T, m *fsx.MemFS, opts Options) *Log {
	t.Helper()
	opts.FS = m
	l, err := Open("d/test.wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func replayAll(t *testing.T, l *Log) []string {
	t.Helper()
	var got []string
	if err := l.Replay(func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	m := fsx.NewMemFS()
	l := openMem(t, m, Options{})
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("fresh log replayed %v", got)
	}
	recs := []string{"alpha", "", "gamma with spaces", strings.Repeat("x", 100_000)}
	for _, r := range recs {
		if err := l.Append([]byte(r), true); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2 := openMem(t, m, Options{})
	got := replayAll(t, l2)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
	if l2.TornTail() != 0 {
		t.Fatalf("clean log reported torn tail")
	}
}

func TestAppendBeforeReplayRefused(t *testing.T) {
	m := fsx.NewMemFS()
	l := openMem(t, m, Options{})
	if err := l.Append([]byte("x"), true); !errors.Is(err, ErrNotReplayed) {
		t.Fatalf("append before replay = %v", err)
	}
}

// TestTornTailTruncated: a crash mid-append leaves a partial frame;
// replay keeps the verified prefix, truncates the tail, and counts it.
func TestTornTailTruncated(t *testing.T) {
	for cut := 1; cut < FrameHeaderSize+5; cut++ {
		m := fsx.NewMemFS()
		l := openMem(t, m, Options{})
		replayAll(t, l)
		l.Append([]byte("first"), true)
		l.Append([]byte("second"), true)
		l.Close()

		// Simulate the torn write: append a prefix of a valid frame.
		frame := EncodeFrame([]byte("torn-record"))
		f, _ := m.OpenFile("d/test.wal", os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		f.Write(frame[:cut])
		f.Sync()
		f.Close()

		l2 := openMem(t, m, Options{})
		got := replayAll(t, l2)
		if len(got) != 2 || got[0] != "first" || got[1] != "second" {
			t.Fatalf("cut=%d: replayed %v", cut, got)
		}
		if l2.TornTail() != 1 {
			t.Fatalf("cut=%d: torn tail not counted", cut)
		}
		// After truncation the log must be appendable and clean.
		if err := l2.Append([]byte("third"), true); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		l2.Close()
		l3 := openMem(t, m, Options{})
		if got := replayAll(t, l3); len(got) != 3 || got[2] != "third" {
			t.Fatalf("cut=%d: after repair replayed %v", cut, got)
		}
	}
}

// TestZeroFillTailIsTorn: a zero-filled tail (preallocation artifact)
// classifies as torn, not corrupt.
func TestZeroFillTailIsTorn(t *testing.T) {
	m := fsx.NewMemFS()
	l := openMem(t, m, Options{})
	replayAll(t, l)
	l.Append([]byte("keep"), true)
	l.Close()

	f, _ := m.OpenFile("d/test.wal", os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	f.Write(make([]byte, 64))
	f.Sync()
	f.Close()

	l2 := openMem(t, m, Options{})
	got := replayAll(t, l2)
	if len(got) != 1 || got[0] != "keep" {
		t.Fatalf("replayed %v", got)
	}
	if l2.TornTail() != 1 {
		t.Fatal("zero-fill tail not counted as torn")
	}
}

// TestMidLogFlipIsCorrupt: a single-byte flip in a mid-log frame must
// surface as *ErrCorruptRecord with the damaged offset — never as a
// silent truncation of the acknowledged records after it.
func TestMidLogFlipIsCorrupt(t *testing.T) {
	// Flip every byte position across the first two frames in turn.
	base := fsx.NewMemFS()
	l := openMem(t, base, Options{})
	replayAll(t, l)
	recs := []string{"record-one", "record-two", "record-three"}
	for _, r := range recs {
		l.Append([]byte(r), true)
	}
	l.Close()
	data, _ := base.ReadFile("d/test.wal")
	frame1 := int64(len(EncodeFrame([]byte(recs[0]))))

	for off := int64(HeaderSize); off < int64(HeaderSize)+frame1; off++ {
		m := fsx.NewMemFS()
		l := openMem(t, m, Options{})
		replayAll(t, l)
		for _, r := range recs {
			l.Append([]byte(r), true)
		}
		l.Close()
		m.SyncDir("d")
		if !m.Corrupt("d/test.wal", off, 0x01) {
			t.Fatalf("offset %d out of range (len %d)", off, len(data))
		}

		l2 := openMem(t, m, Options{})
		var got []string
		err := l2.Replay(func(p []byte) error {
			got = append(got, string(p))
			return nil
		})
		var corrupt *ErrCorruptRecord
		if !errors.As(err, &corrupt) {
			t.Fatalf("flip at %d: err = %v, replayed %v", off, err, got)
		}
		if corrupt.Offset != HeaderSize {
			t.Fatalf("flip at %d: reported offset %d, want %d", off, corrupt.Offset, HeaderSize)
		}
		if len(got) != 0 {
			t.Fatalf("flip at %d: delivered %v before the corrupt frame", off, got)
		}
		l2.Close()
	}
}

// TestQuarantineRecovers: with Quarantine set, mid-log corruption is
// sidecared and the verified prefix stays live.
func TestQuarantineRecovers(t *testing.T) {
	m := fsx.NewMemFS()
	l := openMem(t, m, Options{})
	replayAll(t, l)
	l.Append([]byte("good-one"), true)
	l.Append([]byte("bad-two"), true)
	l.Append([]byte("lost-three"), true)
	l.Close()
	m.SyncDir("d")

	// Flip a payload byte of the second frame.
	off := int64(HeaderSize) + int64(len(EncodeFrame([]byte("good-one")))) + FrameHeaderSize
	if !m.Corrupt("d/test.wal", off, 0x80) {
		t.Fatal("corrupt out of range")
	}

	l2 := openMem(t, m, Options{Quarantine: true})
	got := replayAll(t, l2)
	if len(got) != 1 || got[0] != "good-one" {
		t.Fatalf("replayed %v", got)
	}
	if l2.Quarantined() != 1 {
		t.Fatal("quarantine not counted")
	}
	qdata, err := m.ReadFile("d/test.wal.quarantine")
	if err != nil || len(qdata) == 0 {
		t.Fatalf("quarantine sidecar: %v (%d bytes)", err, len(qdata))
	}
	// Log is usable after quarantine.
	if err := l2.Append([]byte("new-after"), true); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3 := openMem(t, m, Options{})
	if got := replayAll(t, l3); len(got) != 2 || got[1] != "new-after" {
		t.Fatalf("after quarantine replayed %v", got)
	}
}

// TestOversizedFrameTypedRejection: a valid header claiming a payload
// over the limit is a typed rejection, not a scanner cliff.
func TestOversizedFrameTypedRejection(t *testing.T) {
	m := fsx.NewMemFS()
	l := openMem(t, m, Options{MaxRecordBytes: 1024})
	replayAll(t, l)
	if err := l.Append(make([]byte, 2048), true); err == nil {
		t.Fatal("oversized append accepted")
	} else {
		var tooBig *ErrRecordTooLarge
		if !errors.As(err, &tooBig) {
			t.Fatalf("oversized append err = %v", err)
		}
	}
	// A log written under a bigger limit but read under a smaller one.
	l.Append([]byte("ok"), true)
	l.Close()
	f, _ := m.OpenFile("d/test.wal", os.O_RDWR|os.O_APPEND, 0o644)
	f.Write(EncodeFrame(make([]byte, 4096)))
	f.Sync()
	f.Close()
	l2 := openMem(t, m, Options{MaxRecordBytes: 1024})
	err := l2.Replay(nil)
	var tooBig *ErrRecordTooLarge
	if !errors.As(err, &tooBig) || tooBig.Size != 4096 {
		t.Fatalf("replay over limit = %v", err)
	}
}

// TestJSONLRejectedAsCorruption: a JSONL log from before framing has no
// header, so replay (with or without quarantine) and Scan reject it as
// typed corruption at offset 0, never panic, and leave the file as it
// was.
func TestJSONLRejectedAsCorruption(t *testing.T) {
	m := fsx.NewMemFS()
	m.MkdirAll("d", 0o755)
	legacy := `{"type":"submit","id":"j1"}` + "\n" + `{"type":"done","id":"j1"}` + "\n"
	f, _ := m.OpenFile("d/test.wal", os.O_RDWR|os.O_CREATE, 0o644)
	f.Write([]byte(legacy))
	f.Sync()
	f.Close()
	m.SyncDir("d")
	for _, opts := range []Options{{}, {Quarantine: true}} {
		l := openMem(t, m, opts)
		err := l.Replay(nil)
		var corrupt *ErrCorruptRecord
		if !errors.As(err, &corrupt) || corrupt.Offset != 0 {
			t.Fatalf("replay(%+v) of a JSONL log = %v, want *ErrCorruptRecord at 0", opts, err)
		}
		if err := l.Append([]byte(`{}`), true); err == nil {
			t.Fatalf("append after a rejected replay succeeded")
		}
		l.Close()
	}
	_, _, err := Scan(m, "d/test.wal", 0, func([]byte, int64) error { return nil })
	var corrupt *ErrCorruptRecord
	if !errors.As(err, &corrupt) {
		t.Fatalf("Scan of a JSONL log = %v, want *ErrCorruptRecord", err)
	}
	if data, _ := m.ReadFile("d/test.wal"); string(data) != legacy {
		t.Fatalf("rejected log was rewritten: %q", data)
	}
}

// TestFailedAppendRepairs: a short write leaves the log marked for
// repair; the next append truncates back so no corrupt frame survives.
func TestFailedAppendRepairs(t *testing.T) {
	m := fsx.NewMemFS()
	ff := fsx.NewFaultFS(m, 42)
	l, err := Open("d/test.wal", Options{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("durable"), true); err != nil {
		t.Fatal(err)
	}
	ff.SetProfile(fsx.FaultProfile{ShortWrite: 1})
	if err := l.Append([]byte("will-be-torn"), true); err == nil {
		t.Fatal("short write reported success")
	}
	ff.SetProfile(fsx.FaultProfile{})
	if err := l.Append([]byte("after-repair"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := openMem(t, m, Options{})
	got := replayAll(t, l2)
	if len(got) != 2 || got[0] != "durable" || got[1] != "after-repair" {
		t.Fatalf("after repair replayed %v", got)
	}
	if l2.TornTail() != 0 {
		t.Fatal("repair left a torn tail for replay to find")
	}
}

// TestReplaceWithCompacts: compaction rewrites atomically and the log
// remains appendable.
func TestReplaceWithCompacts(t *testing.T) {
	m := fsx.NewMemFS()
	l := openMem(t, m, Options{})
	replayAll(t, l)
	for i := 0; i < 10; i++ {
		l.Append([]byte(fmt.Sprintf("old-%d", i)), true)
	}
	if err := l.ReplaceWith([][]byte{[]byte("kept-a"), []byte("kept-b")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("appended"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := openMem(t, m, Options{})
	got := replayAll(t, l2)
	want := []string{"kept-a", "kept-b", "appended"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("after compact replayed %v", got)
	}
}

// TestReplaceWithFailureRemovesTemp: a compaction whose buffered write
// or fsync fails, whether inside the frame loop (a snapshot larger than
// the buffer) or at the final Flush (a small one), returns the error,
// removes the temp file and leaves the log as it was and appendable.
func TestReplaceWithFailureRemovesTemp(t *testing.T) {
	big := bytes.Repeat([]byte("x"), compactBufSize/3)
	snapshots := map[string][][]byte{
		"small": {[]byte("kept-a"), []byte("kept-b")},
		"large": {big, big, big, big, big},
	}
	for name, snap := range snapshots {
		for _, prof := range []fsx.FaultProfile{{WriteErr: 1}, {ShortWrite: 1}, {SyncErr: 1}} {
			m := fsx.NewMemFS()
			ff := fsx.NewFaultFS(m, 7)
			l, err := Open("d/test.wal", Options{FS: ff})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Replay(nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := l.Append([]byte(fmt.Sprintf("old-%d", i)), true); err != nil {
					t.Fatal(err)
				}
			}
			ff.SetProfile(prof)
			if err := l.ReplaceWith(snap); err == nil {
				t.Fatalf("%s snapshot under %+v: compaction reported success", name, prof)
			}
			ff.SetProfile(fsx.FaultProfile{})
			if _, err := m.Stat("d/test.wal.tmp"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s snapshot under %+v: temp file left behind (stat: %v)", name, prof, err)
			}
			if err := l.Append([]byte("after"), true); err != nil {
				t.Fatal(err)
			}
			l.Close()
			got := replayAll(t, openMem(t, m, Options{}))
			if want := []string{"old-0", "old-1", "old-2", "after"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s snapshot under %+v: log replays %q, want %q", name, prof, got, want)
			}
		}
	}
}

// TestCrashAfterCreateSurvives: Open fsyncs the parent dir, so a crash
// immediately after creation cannot lose the log file (the satellite
// bug in the old stream.OpenWAL).
func TestCrashAfterCreateSurvives(t *testing.T) {
	m := fsx.NewMemFS()
	m.MkdirAll("d", 0o755)
	m.SyncDir("d") // the directory itself exists durably
	l := openMem(t, m, Options{})
	l.Close()
	m.Crash(nil)
	if _, err := m.Stat("d/test.wal"); err != nil {
		t.Fatalf("log file lost after crash-at-create: %v", err)
	}
	l2 := openMem(t, m, Options{})
	if got := replayAll(t, l2); len(got) != 0 {
		t.Fatalf("fresh crashed log replayed %v", got)
	}
}

// TestCrashLosesOnlyUnsynced: records appended with sync survive a
// crash; unsynced ones may be lost but never corrupt the log.
func TestCrashLosesOnlyUnsynced(t *testing.T) {
	m := fsx.NewMemFS()
	m.MkdirAll("d", 0o755)
	m.SyncDir("d")
	l := openMem(t, m, Options{})
	replayAll(t, l)
	l.Append([]byte("acked"), true)
	l.Append([]byte("unacked"), false)
	m.Crash(func(pending int) int { return pending / 2 }) // torn half-frame

	l2 := openMem(t, m, Options{})
	got := replayAll(t, l2)
	if len(got) != 1 || got[0] != "acked" {
		t.Fatalf("after crash replayed %v", got)
	}
}

func TestScanReadOnly(t *testing.T) {
	m := fsx.NewMemFS()
	l := openMem(t, m, Options{})
	replayAll(t, l)
	l.Append([]byte("a"), true)
	l.Append([]byte("bb"), true)
	l.Close()
	var n int
	verified, torn, err := Scan(m, "d/test.wal", 0, func(p []byte, off int64) error {
		n++
		return nil
	})
	if err != nil || torn || n != 2 {
		t.Fatalf("scan: verified=%d torn=%v err=%v n=%d", verified, torn, err, n)
	}
	if verified != l.Size() {
		t.Fatalf("verified %d != size %d", verified, l.Size())
	}
}

func TestScanOSBacked(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "os.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("on-disk"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var got []string
	_, _, err = Scan(nil, path, 0, func(p []byte, _ int64) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil || len(got) != 1 || got[0] != "on-disk" {
		t.Fatalf("os-backed scan: %v %v", got, err)
	}
}
