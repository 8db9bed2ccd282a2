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

// res and repairRes cover every Result field between them.
var (
	res       = &jobs.Result{Lines: []string{"[a]->[b]"}, Partial: true, Reason: "deadline"}
	repairRes = &jobs.Result{Report: "ok\n", CSV: "a\n1\n", Changes: []string{"r1"}}
)

// jobRecs holds every jobs record type; jobGolden is each one's payload.
var jobRecs = []jobs.Record{
	{Type: jobs.RecSubmit, ID: "j1", Seq: 1, Fingerprint: "ab", IdemKey: "key",
		Spec: &jobs.Spec{Kind: "discover", Algo: "tane", CSV: "a,b\n1,2\n", MaxErr: 0.25, SampleRows: 10, SampleSeed: 3, Workers: 2, TimeoutMs: 50, MaxTasks: 9}},
	{Type: jobs.RecSubmit, ID: "j2", Seq: 2, Fingerprint: "ab", CacheHit: true, Result: res,
		Spec: &jobs.Spec{Kind: "validate", FDs: "a->b;b->a"}},
	{Type: jobs.RecStart, ID: "j1", Attempt: 1},
	{Type: jobs.RecRetry, ID: "j1", Attempt: 1, Reason: "transient: injected"},
	{Type: jobs.RecResult, ID: "j1", State: jobs.StatePartial, Result: res, Reason: "deadline"},
	{Type: jobs.RecResult, ID: "j3", State: jobs.StateDone, Result: repairRes},
	{Type: jobs.RecCancel, ID: "j4"},
}

// A jobs payload is 0x01 0x01, then type, id, seq, spec?, fp, idem,
// cache_hit, attempt, state, result?, reason. A spec is kind, algo,
// csv, fds, fd, maxerr, sample_rows, sample_seed, workers, timeout_ms,
// max_tasks; a result lines, report, csv, changes, partial, reason.
// Integers are zigzag varints (1 is "\x02"), strings length-prefixed.
const (
	noSpec     = "\x00"
	resPayload = "\x01" + "\x01\x08[a]->[b]" + "\x00" + "\x00" + "\x00" + "\x01" + "\x08deadline"
)

var jobGolden = []string{
	"\x01\x01" + "\x06submit" + "\x02j1" + "\x02" +
		"\x01" + "\x08discover" + "\x04tane" + "\x08a,b\n1,2\n" + "\x00" + "\x00" +
		"\x00\x00\x00\x00\x00\x00\xd0\x3f" + "\x14" + "\x06" + "\x04" + "\x64" + "\x12" +
		"\x02ab" + "\x03key" + "\x00" + "\x00" + "\x00" + "\x00" + "\x00",
	"\x01\x01" + "\x06submit" + "\x02j2" + "\x04" +
		"\x01" + "\x08validate" + "\x00" + "\x00" + "\x09a->b;b->a" + "\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00" + "\x00" + "\x00" + "\x00" + "\x00" +
		"\x02ab" + "\x00" + "\x01" + "\x00" + "\x00" + resPayload + "\x00",
	"\x01\x01" + "\x05start" + "\x02j1" + "\x00" + noSpec + "\x00" + "\x00" + "\x00" + "\x02" + "\x00" + "\x00" + "\x00",
	"\x01\x01" + "\x05retry" + "\x02j1" + "\x00" + noSpec + "\x00" + "\x00" + "\x00" + "\x02" + "\x00" + "\x00" + "\x13transient: injected",
	"\x01\x01" + "\x06result" + "\x02j1" + "\x00" + noSpec + "\x00" + "\x00" + "\x00" + "\x00" + "\x07partial" + resPayload + "\x08deadline",
	"\x01\x01" + "\x06result" + "\x02j3" + "\x00" + noSpec + "\x00" + "\x00" + "\x00" + "\x00" + "\x04done" +
		"\x01" + "\x00" + "\x03ok\n" + "\x04a\n1\n" + "\x01\x02r1" + "\x00" + "\x00" + "\x00",
	"\x01\x01" + "\x06cancel" + "\x02j4" + "\x00" + noSpec + "\x00" + "\x00" + "\x00" + "\x00" + "\x00" + "\x00" + "\x00",
}

var (
	streamSchema = relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindString},
		relation.Attribute{Name: "b", Kind: relation.KindFloat},
	)
	streamRows = [][]relation.Value{{relation.String("x,\"y\""), relation.Float(1.5)}, {relation.Null(relation.KindString), relation.Float(-2)}}
	streamRecs = []stream.WALRecord{
		{Op: "create", Session: "s1", Algo: "od", Names: []string{"a", "b"}, Kinds: []int{int(relation.KindString), int(relation.KindFloat)}},
		{Op: "batch", Session: "s1", Seq: 1, Cells: stream.EncodeRows(streamRows)},
	}
)

// A stream payload is 0x01 0x02, then op, session, algo, names, kinds,
// seq, cells (a row count, then each row's Value.Key cells).
var streamGolden = []string{
	"\x01\x02" + "\x06create" + "\x02s1" + "\x02od" + "\x02\x01a\x01b" + "\x02\x00\x02" + "\x00" + "\x00",
	"\x01\x02" + "\x05batch" + "\x02s1" + "\x00" + "\x00" + "\x00" + "\x02" +
		"\x02" + "\x02\x07s:x,\"y\"\x05n:1.5" + "\x02\x05\x00null\x04n:-2",
}

// formulaLog is a log as the JSON codec wrote it before the binary one:
// the file header, then one frame per record holding json.Marshal(rec).
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

// frameLog is the file header followed by one frame per payload.
func frameLog(payloads []string) []byte {
	out := wal.EncodeHeader()
	for _, p := range payloads {
		out = append(out, wal.EncodeFrame([]byte(p))...)
	}
	return out
}

func openJobs(t *testing.T, path string) (*jobs.WALStore, []jobs.Record) {
	t.Helper()
	w, err := jobs.OpenWAL(path, jobs.WALOptions{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	recs, err := w.Replay()
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

func openStream(t *testing.T, path string) (*stream.WAL, []stream.WALRecord) {
	t.Helper()
	w, err := stream.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	var recs []stream.WALRecord
	if err := w.Replay(func(rec stream.WALRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return w, recs
}

// TestRecordFormatPinned pins the bytes on disk: every jobs record type
// and both stream ops encode to their golden payload and decode back,
// and the stores write exactly the header and those payloads' frames. A
// log of the JSON payloads written before the binary codec still
// replays through the stores to the same records.
func TestRecordFormatPinned(t *testing.T) {
	for i := range jobRecs {
		checkGolden(t, &jobRecs[i], new(jobs.Record), jobGolden[i])
	}
	for i := range streamRecs {
		checkGolden(t, &streamRecs[i], new(stream.WALRecord), streamGolden[i])
	}

	dir := t.TempDir()
	jobsPath := filepath.Join(dir, "jobs.wal")
	jw, _ := openJobs(t, jobsPath)
	for _, rec := range jobRecs {
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jw.Close()
	requireBytes(t, jobsPath, frameLog(jobGolden))

	streamPath := filepath.Join(dir, "stream.wal")
	sw, _ := openStream(t, streamPath)
	if err := sw.AppendCreate("s1", "od", streamSchema); err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendBatch("s1", 1, streamRows); err != nil {
		t.Fatal(err)
	}
	sw.Close()
	requireBytes(t, streamPath, frameLog(streamGolden))

	// Legacy logs replay to the records they were built from.
	if err := os.WriteFile(jobsPath, formulaLog(t, jobRecs), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, got := openJobs(t, jobsPath); !reflect.DeepEqual(got, jobRecs) {
		t.Fatalf("legacy jobs replay:\ngot  %+v\nwant %+v", got, jobRecs)
	}
	if err := os.WriteFile(streamPath, formulaLog(t, streamRecs), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, got := openStream(t, streamPath); !reflect.DeepEqual(got, streamRecs) {
		t.Fatalf("legacy stream replay:\ngot  %+v\nwant %+v", got, streamRecs)
	}
}

// checkGolden checks that rec encodes to golden and golden decodes,
// into the zero record fresh, back to rec.
func checkGolden[P wal.Record](t *testing.T, rec, fresh P, golden string) {
	t.Helper()
	if got := wal.Encode(rec); string(got) != golden {
		t.Errorf("%+v encodes to\n%q\nwant\n%q", rec, got, golden)
	}
	if err := wal.Decode([]byte(golden), fresh); err != nil {
		t.Fatalf("decode %q: %v", golden, err)
	}
	if !reflect.DeepEqual(fresh, rec) {
		t.Errorf("%q decodes to\n%+v\nwant\n%+v", golden, fresh, rec)
	}
}

// TestMixedLogReplaysAndCompactsToBinary: a log with a JSON prefix, as
// an older build left it, takes binary appends, replays whole, and a
// compaction rewrites it into binary frames only that replay to the
// same records.
func TestMixedLogReplaysAndCompactsToBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	const k = 3
	prefix := formulaLog(t, jobRecs[:k])
	if err := os.WriteFile(path, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	w, got := openJobs(t, path)
	if !reflect.DeepEqual(got, jobRecs[:k]) {
		t.Fatalf("JSON prefix replays to %+v", got)
	}
	for _, rec := range jobRecs[k:] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	mixed := append(prefix, frameLog(jobGolden[k:])[wal.HeaderSize:]...)
	requireBytes(t, path, mixed)

	w, got = openJobs(t, path)
	if !reflect.DeepEqual(got, jobRecs) {
		t.Fatalf("mixed log replays to\n%+v\nwant\n%+v", got, jobRecs)
	}
	if err := w.Compact(got); err != nil {
		t.Fatal(err)
	}
	w.Close()
	requireBytes(t, path, frameLog(jobGolden))
	if _, got := openJobs(t, path); !reflect.DeepEqual(got, jobRecs) {
		t.Fatalf("compacted log replays to\n%+v\nwant\n%+v", got, jobRecs)
	}
}

// TestDecodeRejects: a payload that is neither format, names the other
// store's kind, is cut short or runs past its fields is undecodable.
func TestDecodeRejects(t *testing.T) {
	for _, p := range []string{
		"",
		"\x01",
		"\x02\x01",
		"[]",
		"\x01\x02" + jobGolden[2][2:],
		jobGolden[2][:len(jobGolden[2])-1],
		jobGolden[2] + "\x00",
		"\x01\x01\x05start\x7fj1",
		"\x01\x01\x05start\x02j1\x00\x02",
	} {
		var rec jobs.Record
		if err := wal.Decode([]byte(p), &rec); err == nil {
			t.Errorf("Decode(%q) = %+v, want an error", p, rec)
		}
	}
}

func requireBytes(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes on disk differ from the %d-byte expected log:\ngot  %q\nwant %q", path, len(got), len(want), got, want)
	}
}
