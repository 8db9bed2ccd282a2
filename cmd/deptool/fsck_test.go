package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deptree/internal/jobs"
	"deptree/internal/stream"
	"deptree/internal/wal"
)

// writeJobsWAL builds a framed jobs log with the given record history.
func writeJobsWAL(t *testing.T, path string, recs ...string) {
	t.Helper()
	var buf []byte
	buf = append(buf, wal.EncodeHeader()...)
	for _, r := range recs {
		buf = append(buf, wal.EncodeFrame([]byte(r))...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFsckCleanJobsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	writeJobsWAL(t, path,
		`{"type":"submit","id":"j1","spec":{"kind":"discover"}}`,
		`{"type":"start","id":"j1","attempt":1}`,
		`{"type":"result","id":"j1","state":"done"}`,
	)
	out, err := capture(t, func() error { return cmdFsck([]string{path}) })
	if err != nil {
		t.Fatalf("fsck clean log: %v\n%s", err, out)
	}
	for _, want := range []string{"jobs log, 3 record(s)", "clean", "jobs submit j1", "jobs result j1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFsckTornTailReportsAndRepairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	writeJobsWAL(t, path, `{"type":"submit","id":"j1","spec":{"kind":"discover"}}`)
	frame := wal.EncodeFrame([]byte(`{"type":"start","id":"j1","attempt":1}`))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame[:len(frame)/2]) // crash mid-append
	f.Close()

	// Verify-only: problem reported, exit-2 error, file untouched.
	out, err := capture(t, func() error { return cmdFsck([]string{path}) })
	if !errors.Is(err, errPartial) {
		t.Fatalf("torn log: err = %v, want errPartial\n%s", err, out)
	}
	if !strings.Contains(out, "torn tail") {
		t.Fatalf("no torn-tail report:\n%s", out)
	}

	// Repair: truncates, second verify is clean.
	out, err = capture(t, func() error { return cmdFsck([]string{"-repair", path}) })
	if err != nil {
		t.Fatalf("fsck -repair: %v\n%s", err, out)
	}
	if !strings.Contains(out, "truncated torn tail") || !strings.Contains(out, "clean") {
		t.Fatalf("repair output:\n%s", out)
	}
	if out, err = capture(t, func() error { return cmdFsck([]string{path}) }); err != nil {
		t.Fatalf("fsck after repair: %v\n%s", err, out)
	}
}

func TestFsckMidLogFlipQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.wal")
	w, err := stream.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if err := w.AppendBatch("s1", seq, nil); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Flip one byte past the first record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error { return cmdFsck([]string{path}) })
	if !errors.Is(err, errPartial) {
		t.Fatalf("corrupt log: err = %v, want errPartial\n%s", err, out)
	}
	if !strings.Contains(out, "CORRUPT") || !strings.Contains(out, "stream log") {
		t.Fatalf("corruption report:\n%s", out)
	}

	out, err = capture(t, func() error { return cmdFsck([]string{"-repair", path}) })
	if err != nil {
		t.Fatalf("fsck -repair: %v\n%s", err, out)
	}
	if !strings.Contains(out, "quarantined corrupt suffix") {
		t.Fatalf("repair output:\n%s", out)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine sidecar: %v", err)
	}
}

func TestFsckCompactFoldsJobsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	writeJobsWAL(t, path,
		`{"type":"submit","id":"j1","spec":{"kind":"discover"}}`,
		`{"type":"start","id":"j1","attempt":1}`,
		`{"type":"retry","id":"j1","attempt":1,"reason":"transient"}`,
		`{"type":"start","id":"j1","attempt":2}`,
		`{"type":"result","id":"j1","state":"done"}`,
		`{"type":"submit","id":"j2","spec":{"kind":"validate"}}`,
	)
	out, err := capture(t, func() error { return cmdFsck([]string{"-compact", "-q", path}) })
	if err != nil {
		t.Fatalf("fsck -compact: %v\n%s", err, out)
	}
	if !strings.Contains(out, "compacted 6 -> ") {
		t.Fatalf("compact output:\n%s", out)
	}

	// The folded log must replay to the same terminal state.
	store, err := jobs.OpenWAL(path, jobs.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	got, err := store.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= 6 {
		t.Fatalf("compaction did not shrink the log: %d records", len(got))
	}
	byID := map[string][]jobs.Record{}
	for _, rec := range got {
		byID[rec.ID] = append(byID[rec.ID], rec)
	}
	last1 := byID["j1"][len(byID["j1"])-1]
	if last1.Type != jobs.RecResult || last1.State != jobs.StateDone {
		t.Fatalf("j1 folded terminal record: %+v", last1)
	}
	if len(byID["j2"]) != 1 || byID["j2"][0].Type != jobs.RecSubmit {
		t.Fatalf("j2 folded records: %+v", byID["j2"])
	}
}

func TestFsckKindSniffing(t *testing.T) {
	dir := t.TempDir()
	// Contents win over filename: a stream record in a file named x.wal.
	path := filepath.Join(dir, "x.wal")
	writeJobsWAL(t, path, `{"op":"create","session":"s1","algo":"od","names":["a"],"kinds":[0]}`)
	out, err := capture(t, func() error { return cmdFsck([]string{"-q", path}) })
	if err != nil {
		t.Fatalf("fsck: %v\n%s", err, out)
	}
	if !strings.Contains(out, "stream log") {
		t.Fatalf("sniffed kind:\n%s", out)
	}
	// Empty log: filename decides.
	empty := filepath.Join(dir, "stream.wal")
	if err := os.WriteFile(empty, wal.EncodeHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error { return cmdFsck([]string{empty}) })
	if err != nil {
		t.Fatalf("fsck empty: %v\n%s", err, out)
	}
	if !strings.Contains(out, "stream log, 0 record(s)") {
		t.Fatalf("empty log output:\n%s", out)
	}
}

func TestFsckUndecodablePayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	writeJobsWAL(t, path,
		`{"type":"submit","id":"j1","spec":{"kind":"discover"}}`,
		`{"type":"frobnicate","id":"j2"}`, // valid checksum, unknown type
	)
	out, err := capture(t, func() error { return cmdFsck([]string{path}) })
	if !errors.Is(err, errPartial) {
		t.Fatalf("undecodable record: err = %v, want errPartial\n%s", err, out)
	}
	if !strings.Contains(out, "UNDECODABLE") || !strings.Contains(out, "writer bug") {
		t.Fatalf("undecodable report:\n%s", out)
	}
}
