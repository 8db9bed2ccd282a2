package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/stream"
	"deptree/internal/wal"
)

func relationAppendFile(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// csvOf renders a relation to CSV (the wire format of every endpoint).
func csvOf(t *testing.T, r *relation.Relation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := relation.WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// batchCSV renders one append batch as CSV under the plan's schema.
func batchCSV(t *testing.T, schema *relation.Schema, rows [][]relation.Value) string {
	t.Helper()
	r := relation.New("batch", schema)
	for _, row := range rows {
		if err := r.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return csvOf(t, r)
}

func postStream(t *testing.T, url, algo, body string) (int, streamResponse, []byte) {
	t.Helper()
	status, raw := post(t, url+"/v1/stream/"+algo, body)
	var sr streamResponse
	if status == http.StatusOK {
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("stream response: %v\n%s", err, raw)
		}
	}
	return status, sr, raw
}

// TestStreamSessionLifecycle drives one session through base + drift
// batches and pins the final ruleset to a one-shot discover over the
// concatenation — the HTTP face of the differential guarantee.
func TestStreamSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	plan := gen.AppendBatches(gen.AppendConfig{BaseRows: 80, BatchRows: 30, Batches: 3, DriftAt: 2, Seed: 7})

	status, sr, raw := postStream(t, ts.URL, "tane", mustJSON(t, StreamRequest{CSV: csvOf(t, plan.Base)}))
	if status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, raw)
	}
	if sr.Session != "s1" || sr.Seq != 1 || sr.TotalRows != plan.Base.Rows() || sr.Partial {
		t.Fatalf("create response: %+v", sr)
	}
	if len(sr.Fingerprint) != 64 {
		t.Fatalf("fingerprint %q", sr.Fingerprint)
	}
	shadow := relation.New("shadow", plan.Base.Schema())
	for i := 0; i < plan.Base.Rows(); i++ {
		if err := shadow.Append(plan.Base.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	var last streamResponse
	for i, b := range plan.Batches {
		status, last, raw = postStream(t, ts.URL, "tane",
			mustJSON(t, StreamRequest{Session: "s1", CSV: batchCSV(t, plan.Base.Schema(), b)}))
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i+1, status, raw)
		}
		if last.Seq != i+2 || last.Partial {
			t.Fatalf("batch %d response: %+v", i+1, last)
		}
		for _, row := range b {
			if err := shadow.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The session's ruleset must equal a from-scratch discover over the
	// same bytes.
	status, raw = post(t, ts.URL+"/v1/discover/tane", mustJSON(t, map[string]string{"csv": csvOf(t, shadow)}))
	if status != http.StatusOK {
		t.Fatalf("discover: status %d: %s", status, raw)
	}
	var dr discoverResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last.Results, dr.Results) {
		t.Fatalf("stream != discover\nstream:   %q\ndiscover: %q", last.Results, dr.Results)
	}
	// The drift batch must have emitted a non-empty removal diff at some
	// point; at minimum the final batch carries a coherent count.
	if last.Count != len(last.Results) {
		t.Fatalf("count %d, results %d", last.Count, len(last.Results))
	}
}

func TestStreamRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ordered := gen.AppendBatches(gen.AppendConfig{BaseRows: 20, Batches: 1, Seed: 1})
	baseCSV := csvOf(t, ordered.Base)

	status, _, raw := postStream(t, ts.URL, "nope", `{"csv":"a\n1\n"}`)
	if status != http.StatusNotFound || errCode(t, raw) != "unknown_algo" {
		t.Fatalf("unknown algo: %d %s", status, raw)
	}
	status, _, raw = postStream(t, ts.URL, "fastdc", `{"csv":"a\n1\n"}`)
	if status != http.StatusBadRequest || errCode(t, raw) != "streaming_unsupported" {
		t.Fatalf("unsupported algo: %d %s", status, raw)
	}
	status, _, raw = postStream(t, ts.URL, "tane", `{"csv":"a\n1\n","session":"s99"}`)
	if status != http.StatusNotFound || errCode(t, raw) != "unknown_session" {
		t.Fatalf("unknown session: %d %s", status, raw)
	}
	// Approximate/sampling knobs are not incremental: the strict decoder
	// rejects them.
	status, _, raw = postStream(t, ts.URL, "tane", `{"csv":"a\n1\n","max_err":0.1}`)
	if status != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
		t.Fatalf("max_err: %d %s", status, raw)
	}
	status, _, raw = postStream(t, ts.URL, "tane", `{"csv":""}`)
	if status != http.StatusBadRequest || errCode(t, raw) != "missing_csv" {
		t.Fatalf("missing csv: %d %s", status, raw)
	}

	// Create one real session, then exercise append-side validation.
	status, sr, raw := postStream(t, ts.URL, "od", mustJSON(t, StreamRequest{CSV: baseCSV}))
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	status, _, raw = postStream(t, ts.URL, "tane", mustJSON(t, StreamRequest{Session: sr.Session, CSV: baseCSV}))
	if status != http.StatusBadRequest || errCode(t, raw) != "algo_mismatch" {
		t.Fatalf("algo mismatch: %d %s", status, raw)
	}
	status, _, raw = postStream(t, ts.URL, "od", mustJSON(t, StreamRequest{Session: sr.Session, CSV: "x,y\n1,2\n"}))
	if status != http.StatusBadRequest {
		t.Fatalf("schema mismatch: %d %s", status, raw)
	}
}

func TestStreamSessionCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, StreamMaxSessions: 1})
	status, _, raw := postStream(t, ts.URL, "od", `{"csv":"a,b\n1,2\n"}`)
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	status, _, raw = postStream(t, ts.URL, "od", `{"csv":"a,b\n1,2\n"}`)
	if status != http.StatusTooManyRequests || errCode(t, raw) != "stream_sessions_exhausted" {
		t.Fatalf("cap: %d %s", status, raw)
	}
}

// TestStreamWALRestart is the crash-recovery contract: a session created
// and fed on one server instance is replayed by the next one from the
// WAL with an identical fingerprint and ruleset, and keeps accepting
// batches.
func TestStreamWALRestart(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "stream.wal")
	plan := gen.AppendBatches(gen.AppendConfig{BaseRows: 60, BatchRows: 25, Batches: 3, DriftAt: 2, Seed: 9})
	headerOnly := batchCSV(t, plan.Base.Schema(), nil)

	s1, ts1 := newTestServer(t, Config{Workers: 2, StreamWALPath: walPath})
	status, _, raw := postStream(t, ts1.URL, "od", mustJSON(t, StreamRequest{CSV: csvOf(t, plan.Base)}))
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	status, before, raw := postStream(t, ts1.URL, "od",
		mustJSON(t, StreamRequest{Session: "s1", CSV: batchCSV(t, plan.Base.Schema(), plan.Batches[0])}))
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, raw)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, StreamWALPath: walPath})
	// A header-only append is a pure read of the replayed state.
	status, after, raw := postStream(t, ts2.URL, "od", mustJSON(t, StreamRequest{Session: "s1", CSV: headerOnly}))
	if status != http.StatusOK {
		t.Fatalf("post-restart read: %d %s", status, raw)
	}
	if after.Fingerprint != before.Fingerprint {
		t.Fatalf("fingerprint diverged across restart:\nbefore %s\nafter  %s", before.Fingerprint, after.Fingerprint)
	}
	if !reflect.DeepEqual(after.Results, before.Results) {
		t.Fatalf("ruleset diverged across restart:\nbefore %q\nafter  %q", before.Results, after.Results)
	}
	// The replayed session keeps streaming — ids must not collide either.
	status, sr, raw := postStream(t, ts2.URL, "od",
		mustJSON(t, StreamRequest{Session: "s1", CSV: batchCSV(t, plan.Base.Schema(), plan.Batches[1])}))
	if status != http.StatusOK || sr.Partial {
		t.Fatalf("post-restart batch: %d %s", status, raw)
	}
	status, s2r, raw := postStream(t, ts2.URL, "tane", mustJSON(t, StreamRequest{CSV: csvOf(t, plan.Base)}))
	if status != http.StatusOK {
		t.Fatalf("post-restart create: %d %s", status, raw)
	}
	if s2r.Session != "s2" {
		t.Fatalf("post-restart session id %q, want s2", s2r.Session)
	}
}

// TestStreamTextFormat checks the ?format=text rendering.
func TestStreamTextFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	status, raw := post(t, ts.URL+"/v1/stream/od?format=text", `{"csv":"a,b\n1,2\n2,3\n"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	want := "session s1 batch 1 rows 2 total 2\n"
	if !bytes.HasPrefix(raw, []byte(want)) {
		t.Fatalf("text output:\n%s", raw)
	}
	if !bytes.Contains(raw, []byte("dependencies\n")) {
		t.Fatalf("text output missing count line:\n%s", raw)
	}
}

// TestStreamTornWALTail plants a torn tail and checks the next server
// truncates it and still replays the clean prefix.
func TestStreamTornWALTail(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "stream.wal")
	s1, ts1 := newTestServer(t, Config{Workers: 1, StreamWALPath: walPath})
	status, _, raw := postStream(t, ts1.URL, "od", `{"csv":"a,b\n1,2\n2,3\n"}`)
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := relationAppendFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.EncodeFrame([]byte(`{"op":"batch","session":"s1","cells":[["n:9"]]}`))
	f.Write(frame[:len(frame)/2]) // crash mid-frame
	f.Close()

	_, ts2 := newTestServer(t, Config{Workers: 1, StreamWALPath: walPath})
	status, sr, raw := postStream(t, ts2.URL, "od", `{"csv":"a,b\n","session":"s1"}`)
	if status != http.StatusOK {
		t.Fatalf("post-truncation read: %d %s", status, raw)
	}
	if sr.TotalRows != 2 {
		t.Fatalf("replayed rows %d, want 2", sr.TotalRows)
	}
}

// TestReadyzReportsPoisonedWAL checks the poisoned stream subsystem is
// visible where an operator looks: /readyz flips to 503 with a
// diagnostic and the stream.wal_poisoned gauge reads 1.
func TestReadyzReportsPoisonedWAL(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy readyz = %d, want 200", resp.StatusCode)
	}

	s.streams.fail(errors.New("disk on fire"))

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poisoned readyz = %d, want 503", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("stream wal poisoned")) || !bytes.Contains(body, []byte("disk on fire")) {
		t.Fatalf("poisoned readyz body = %q", body)
	}
	if got := s.streams.gPoisoned.Value(); got != 1 {
		t.Fatalf("stream.wal_poisoned gauge = %d, want 1", got)
	}
}

// TestStreamWALAppendReopenRetry exercises the bounded recovery in
// walAppend: one transient append failure heals through reopen-and-
// verify plus a single retry (no poisoning, recovery counted); a
// persistent failure still poisons the table.
func TestStreamWALAppendReopenRetry(t *testing.T) {
	newTable := func(t *testing.T) *streamTable {
		t.Helper()
		w, err := stream.OpenWAL(filepath.Join(t.TempDir(), "stream.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Replay(nil); err != nil {
			t.Fatal(err)
		}
		tbl := newStreamTable(4, obs.New())
		tbl.wal = w
		t.Cleanup(func() { w.Close() })
		return tbl
	}

	t.Run("transient failure heals", func(t *testing.T) {
		tbl := newTable(t)
		calls := 0
		err := tbl.walAppend(func(w *stream.WAL) error {
			calls++
			if calls == 1 {
				return errors.New("transient write error")
			}
			return w.AppendCreate("s1", "od", relation.NewSchema(relation.Attribute{Name: "a", Kind: relation.KindString}))
		})
		if err != nil {
			t.Fatalf("walAppend after transient failure: %v", err)
		}
		if calls != 2 {
			t.Fatalf("append attempted %d times, want 2 (original + one retry)", calls)
		}
		if got := tbl.cReopened.Value(); got != 1 {
			t.Fatalf("stream.wal_reopen_recoveries = %d, want 1", got)
		}
		if err := tbl.unavailable(); err != nil {
			t.Fatalf("table poisoned after successful recovery: %v", err)
		}
	})

	t.Run("persistent failure poisons", func(t *testing.T) {
		tbl := newTable(t)
		calls := 0
		err := tbl.walAppend(func(w *stream.WAL) error {
			calls++
			return errors.New("disk is gone")
		})
		if err == nil {
			t.Fatal("walAppend succeeded despite persistent failure")
		}
		if calls != 2 {
			t.Fatalf("append attempted %d times, want exactly 2 (retry is bounded)", calls)
		}
		if tbl.unavailable() == nil {
			t.Fatal("table not poisoned after failed recovery")
		}
		if got := tbl.gPoisoned.Value(); got != 1 {
			t.Fatalf("stream.wal_poisoned gauge = %d, want 1", got)
		}
	})
}

// TestStreamFailedCreateHoldsNoSlot checks that a creation whose first
// batch does not answer 200 leaves nothing behind: with one session
// slot, a create that ends in an injected engine panic (500) or a
// cancellation (503) is followed by a clean create that gets the slot,
// and a restart over the WAL replays no session for it.
func TestStreamFailedCreateHoldsNoSlot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hook   engine.TaskHook
		status int
		code   string
	}{
		{"panic", func(*engine.Pool, int) { panic("injected") }, http.StatusInternalServerError, "engine_panic"},
		{"cancel", func(p *engine.Pool, _ int) { p.Cancel() }, http.StatusServiceUnavailable, "cancelled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := mustJSON(t, StreamRequest{CSV: smallCSV})
			failCreate := func(t *testing.T, url string) {
				t.Helper()
				restore := engine.SetTaskHook(tc.hook)
				defer restore()
				status, _, raw := postStream(t, url, "tane", body)
				if status != tc.status || errCode(t, raw) != tc.code {
					t.Fatalf("failing create: %d %s", status, raw)
				}
			}
			cleanCreate := func(t *testing.T, url string) {
				t.Helper()
				status, sr, raw := postStream(t, url, "tane", body)
				if status != http.StatusOK || sr.Session != "s1" {
					t.Fatalf("clean create after a failed one: %d %s", status, raw)
				}
			}

			_, ts := newTestServer(t, Config{Workers: 2, StreamMaxSessions: 1})
			failCreate(t, ts.URL)
			cleanCreate(t, ts.URL)

			cfg := Config{Workers: 2, StreamMaxSessions: 1, StreamWALPath: filepath.Join(t.TempDir(), "stream.wal")}
			s1, ts1 := newTestServer(t, cfg)
			failCreate(t, ts1.URL)
			ts1.Close()
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestServer(t, cfg)
			if n := len(s2.streams.byID); n != 0 {
				t.Fatalf("restart replayed %d sessions, want 0", n)
			}
			cleanCreate(t, ts2.URL)
		})
	}
}

// TestStreamConcurrentCreatesRespectCap races more creations than the
// cap allows: exactly the cap's worth answer 200, under distinct ids,
// and the rest answer 429, whether they lost before or after running
// their first batch.
func TestStreamConcurrentCreatesRespectCap(t *testing.T) {
	const max, creates = 2, 8
	s, ts := newTestServer(t, Config{Workers: 2, StreamMaxSessions: max})
	body := mustJSON(t, StreamRequest{CSV: smallCSV})
	type reply struct {
		status  int
		session string
	}
	replies := make(chan reply, creates)
	var wg sync.WaitGroup
	for i := 0; i < creates; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/stream/tane", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sr streamResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
					t.Error(err)
				}
			}
			replies <- reply{resp.StatusCode, sr.Session}
		}()
	}
	wg.Wait()
	close(replies)
	ids := map[string]bool{}
	for r := range replies {
		switch r.status {
		case http.StatusOK:
			ids[r.session] = true
		case http.StatusTooManyRequests:
		default:
			t.Errorf("create answered %d", r.status)
		}
	}
	if len(ids) != max || !ids["s1"] || !ids["s2"] {
		t.Fatalf("created sessions %v, want s1 and s2", ids)
	}
	if n := len(s.streams.byID); n != max {
		t.Fatalf("table holds %d sessions, want %d", n, max)
	}
}
