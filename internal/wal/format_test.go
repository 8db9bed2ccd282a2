package wal_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deptree/internal/jobs"
	"deptree/internal/relation"
	"deptree/internal/stream"
	"deptree/internal/wal"
)

// formulaLog is a log as the record codec has always written it: the
// file header, then one frame per record holding json.Marshal(rec).
func formulaLog[R any](t *testing.T, recs []R) []byte {
	t.Helper()
	out := wal.EncodeHeader()
	for _, rec := range recs {
		p, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wal.EncodeFrame(p)...)
	}
	return out
}

// TestRecordFormatPinned pins the bytes on disk. Every jobs record type
// and both stream ops, written through the stores, equal
// EncodeFrame(json.Marshal(rec)) frame for frame, and a log built by
// that formula replays through the stores to the same records.
func TestRecordFormatPinned(t *testing.T) {
	dir := t.TempDir()
	res := &jobs.Result{Lines: []string{"[a]->[b]"}, Partial: true, Reason: "deadline"}
	jobRecs := []jobs.Record{
		{Type: jobs.RecSubmit, ID: "j000001-abababab", Seq: 1, Fingerprint: "abab", IdemKey: "key",
			Spec: &jobs.Spec{Kind: "discover", Algo: "tane", CSV: "a,b\n1,2\n", MaxErr: 0.25, SampleRows: 10, SampleSeed: 3, Workers: 2, TimeoutMs: 50, MaxTasks: 9}},
		{Type: jobs.RecSubmit, ID: "j000002-abababab", Seq: 2, Fingerprint: "abab", CacheHit: true, Result: res,
			Spec: &jobs.Spec{Kind: "validate", FDs: "a->b;b->a"}},
		{Type: jobs.RecStart, ID: "j000001-abababab", Attempt: 1},
		{Type: jobs.RecRetry, ID: "j000001-abababab", Attempt: 1, Reason: "transient: injected"},
		{Type: jobs.RecResult, ID: "j000001-abababab", State: jobs.StatePartial, Result: res, Reason: "deadline"},
		{Type: jobs.RecCancel, ID: "j000003-abababab"},
	}
	jobsPath := filepath.Join(dir, "jobs.wal")
	jw, err := jobs.OpenWAL(jobsPath, jobs.WALOptions{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jw.Replay(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range jobRecs {
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jw.Close()
	requireBytes(t, jobsPath, formulaLog(t, jobRecs))

	schema := relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindString},
		relation.Attribute{Name: "b", Kind: relation.KindFloat},
	)
	rows := [][]relation.Value{{relation.String("x,\"y\""), relation.Float(1.5)}, {relation.Null(relation.KindString), relation.Float(-2)}}
	streamRecs := []stream.WALRecord{
		{Op: "create", Session: "s1", Algo: "od", Names: []string{"a", "b"}, Kinds: []int{int(relation.KindString), int(relation.KindFloat)}},
		{Op: "batch", Session: "s1", Seq: 1, Cells: stream.EncodeRows(rows)},
	}
	streamPath := filepath.Join(dir, "stream.wal")
	sw, err := stream.OpenWAL(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendCreate("s1", "od", schema); err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendBatch("s1", 1, rows); err != nil {
		t.Fatal(err)
	}
	sw.Close()
	requireBytes(t, streamPath, formulaLog(t, streamRecs))

	// Logs written by the formula replay to the records they were built
	// from.
	if err := os.WriteFile(jobsPath, formulaLog(t, jobRecs), 0o644); err != nil {
		t.Fatal(err)
	}
	jw, err = jobs.OpenWAL(jobsPath, jobs.WALOptions{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	gotJobs, err := jw.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotJobs, jobRecs) {
		t.Fatalf("jobs replay:\ngot  %+v\nwant %+v", gotJobs, jobRecs)
	}
	if err := os.WriteFile(streamPath, formulaLog(t, streamRecs), 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err = stream.OpenWAL(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	var gotStream []stream.WALRecord
	if err := sw.Replay(func(rec stream.WALRecord) error {
		gotStream = append(gotStream, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotStream, streamRecs) {
		t.Fatalf("stream replay:\ngot  %+v\nwant %+v", gotStream, streamRecs)
	}
}

func requireBytes(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes on disk differ from the %d-byte formula log:\ngot  %q\nwant %q", path, len(got), len(want), got, want)
	}
}
