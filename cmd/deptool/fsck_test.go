package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"deptree/internal/jobs"
	"deptree/internal/relation"
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

// TestFsckCompactFoldsJobsLog: -compact folds a jobs log to its
// snapshot. The log predates terminal jobs dropping their CSV, so its
// done and cancelled jobs' submits carry one: the folded log drops
// those, keeps the queued job's, and replays to the same views.
func TestFsckCompactFoldsJobsLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	writeJobsWAL(t, path,
		`{"type":"submit","id":"j1","spec":{"kind":"discover","csv":"a,b\n1,2\n"}}`,
		`{"type":"start","id":"j1","attempt":1}`,
		`{"type":"retry","id":"j1","attempt":1,"reason":"transient"}`,
		`{"type":"start","id":"j1","attempt":2}`,
		`{"type":"result","id":"j1","state":"done","result":{"lines":["a->b"]}}`,
		`{"type":"submit","id":"j2","spec":{"kind":"validate","csv":"c,d\n3,4\n"}}`,
		`{"type":"submit","id":"j3","spec":{"kind":"repair","csv":"e,f\n5,6\n"}}`,
		`{"type":"cancel","id":"j3"}`,
	)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.wal")
	if err := os.WriteFile(legacy, before, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return cmdFsck([]string{"-compact", "-q", path}) })
	if err != nil {
		t.Fatalf("fsck -compact: %v\n%s", err, out)
	}
	if !strings.Contains(out, "compacted 8 -> ") {
		t.Fatalf("compact output:\n%s", out)
	}
	requireBinaryFrames(t, path)

	store, err := jobs.OpenWAL(path, jobs.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Replay()
	store.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= 8 {
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
	for id, wantCSV := range map[string]string{"j1": "", "j2": "c,d\n3,4\n", "j3": ""} {
		if csv := byID[id][0].Spec.CSV; csv != wantCSV {
			t.Errorf("%s folded submit carries CSV %q, want %q", id, csv, wantCSV)
		}
	}

	// Both logs replay to the same views and results; the queued j2
	// runs over the CSV its folded submit kept.
	replayViews := func(path string) []jobs.View {
		t.Helper()
		store, err := jobs.OpenWAL(path, jobs.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := jobs.New(jobs.Config{Store: store, Run: func(ctx context.Context, s jobs.Spec) (jobs.Result, error) {
			return jobs.Result{Report: s.CSV}, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		var views []jobs.View
		for _, id := range []string{"j1", "j2", "j3"} {
			v, ok := m.Wait(context.Background(), id, 10*time.Second)
			if !ok {
				t.Fatalf("%s: job %s unknown after replay", path, id)
			}
			views = append(views, v)
		}
		return views
	}
	want := replayViews(legacy)
	if want[1].State != jobs.StateDone || want[1].Result.Report != "c,d\n3,4\n" {
		t.Fatalf("legacy replay ran j2 to %+v", want[1])
	}
	if folded := replayViews(path); !reflect.DeepEqual(folded, want) {
		t.Fatalf("folded log replays to\n%+v\nwant\n%+v", folded, want)
	}
}

// TestCacheHitSubmitRecordCarriesNoCSV: a resubmit answered from the
// result cache logs its submit record with the result and without the
// CSV, and a replay of the log and a replay of its `fsck -compact` fold
// both serve the views the live manager served, without running a job
// again.
func TestCacheHitSubmitRecordCarriesNoCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	open := func(path string, run jobs.RunFunc) *jobs.Manager {
		t.Helper()
		store, err := jobs.OpenWAL(path, jobs.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := jobs.New(jobs.Config{Store: store, Run: run, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := open(path, func(ctx context.Context, s jobs.Spec) (jobs.Result, error) {
		return jobs.Result{Lines: []string{s.Algo + ": a->b"}}, nil
	})
	spec := jobs.Spec{Kind: "discover", Algo: "tane", CSV: "a,b\n1,2\n3,2\n"}
	first, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Wait(context.Background(), first.ID, 10*time.Second); v.State != jobs.StateDone {
		t.Fatalf("first job: %+v", v)
	}
	hit, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.State != jobs.StateDone {
		t.Fatalf("resubmit: %+v, want a done cache hit", hit)
	}
	var want []jobs.View
	for _, id := range []string{first.ID, hit.ID} {
		v, _ := m.Get(id)
		want = append(want, v)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := jobs.OpenWAL(path, jobs.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.Replay()
	store.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Type == jobs.RecSubmit && rec.ID == hit.ID && (rec.Spec.CSV != "" || rec.Result == nil) {
			t.Fatalf("cache-hit submit record carries CSV %q and result %v, want no CSV and the result", rec.Spec.CSV, rec.Result)
		}
	}

	compacted := filepath.Join(dir, "compacted.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(compacted, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := capture(t, func() error { return cmdFsck([]string{"-compact", "-q", compacted}) }); err != nil {
		t.Fatalf("fsck -compact: %v\n%s", err, out)
	}
	for _, p := range []string{path, compacted} {
		m := open(p, func(ctx context.Context, s jobs.Spec) (jobs.Result, error) {
			t.Errorf("%s: job re-ran after replay", p)
			return jobs.Result{}, nil
		})
		var got []jobs.View
		for _, id := range []string{first.ID, hit.ID} {
			v, _ := m.Get(id)
			got = append(got, v)
		}
		m.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s replays to\n%+v\nwant\n%+v", p, got, want)
		}
	}
}

func TestFsckKindSniffing(t *testing.T) {
	dir := t.TempDir()
	// Contents win over filename: a stream record in a file named x.wal,
	// legacy JSON or binary, and a binary jobs record in a file whose
	// name says stream.
	streamRec := stream.WALRecord{Op: "create", Session: "s1", Algo: "od", Names: []string{"a"}, Kinds: []int{0}}
	jobsRec := jobs.Record{Type: jobs.RecCancel, ID: "j1"}
	for _, c := range []struct {
		name, payload, want string
	}{
		{"x.wal", `{"op":"create","session":"s1","algo":"od","names":["a"],"kinds":[0]}`, "stream log"},
		{"x.wal", string(wal.Encode(&streamRec)), "stream log"},
		{"stream-jobs.wal", string(wal.Encode(&jobsRec)), "jobs log"},
	} {
		path := filepath.Join(dir, c.name)
		writeJobsWAL(t, path, c.payload)
		out, err := capture(t, func() error { return cmdFsck([]string{"-q", path}) })
		if err != nil {
			t.Fatalf("fsck %q: %v\n%s", c.payload, err, out)
		}
		if !strings.Contains(out, c.want) {
			t.Fatalf("sniffed kind of %q, want %s:\n%s", c.payload, c.want, out)
		}
	}
	// Empty log: filename decides.
	empty := filepath.Join(dir, "stream.wal")
	if err := os.WriteFile(empty, wal.EncodeHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return cmdFsck([]string{empty}) })
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
		"\x01\x01\x05start",               // binary, cut short
		"\x00junk",                        // neither JSON nor binary
	)
	out, err := capture(t, func() error { return cmdFsck([]string{path}) })
	if !errors.Is(err, errPartial) {
		t.Fatalf("undecodable record: err = %v, want errPartial\n%s", err, out)
	}
	if n := strings.Count(out, "UNDECODABLE"); n != 3 || !strings.Contains(out, "3 record(s) with valid checksums") || !strings.Contains(out, "writer bug") {
		t.Fatalf("undecodable report (%d UNDECODABLE lines):\n%s", n, out)
	}
}

// TestFsckMixedFormatLog: a stream log with a legacy JSON prefix and
// binary appends, as a newer build leaves an older build's log,
// verifies clean, and -compact rewrites it into binary frames only that
// replay to the same records.
func TestFsckMixedFormatLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")
	writeJobsWAL(t, path,
		`{"op":"create","session":"s1","algo":"od","names":["a","b"],"kinds":[0,1]}`,
		`{"op":"batch","session":"s1","seq":1,"cells":[["s:x","n:1"]]}`,
	)
	replay := func() []stream.WALRecord {
		t.Helper()
		w, err := stream.OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var recs []stream.WALRecord
		if err := w.Replay(func(rec stream.WALRecord) error {
			recs = append(recs, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	w, err := stream.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch("s1", 2, [][]relation.Value{{relation.Null(relation.KindString), relation.Float(2.5)}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	want := replay()
	if len(want) != 3 || want[2].Seq != 2 {
		t.Fatalf("mixed log replays to %+v", want)
	}

	out, err := capture(t, func() error { return cmdFsck([]string{"-compact", path}) })
	if err != nil {
		t.Fatalf("fsck -compact: %v\n%s", err, out)
	}
	for _, s := range []string{"stream log, 3 record(s)", "clean", "stream batch s1 seq=2 rows=1", "compacted 3 -> 3"} {
		if !strings.Contains(out, s) {
			t.Errorf("output missing %q:\n%s", s, out)
		}
	}
	requireBinaryFrames(t, path)
	if got := replay(); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted log replays to\n%+v\nwant\n%+v", got, want)
	}
}

// requireBinaryFrames fails unless every frame of the log at path holds
// a binary payload.
func requireBinaryFrames(t *testing.T, path string) {
	t.Helper()
	if _, _, err := wal.Scan(nil, path, 0, func(p []byte, off int64) error {
		if _, ok := wal.PayloadKind(p); !ok {
			t.Errorf("%s: frame at %d is not binary: %q", path, off, p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
