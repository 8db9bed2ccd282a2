// Kill-and-restart recovery scenarios for the durable job service
// (`make recover` runs exactly these): a server SIGKILLed mid-job must,
// on restart over the same WAL, replay its backlog to byte-identical
// results; a torn WAL tail must truncate to the valid prefix; injected
// store faults must retry transiently, not fail jobs terminally.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/server"
	"deptree/internal/wal"
)

// TestMain gates the re-exec child mode: the kill-and-restart test
// launches this same test binary as a real server process so SIGKILL
// hits a process, not a goroutine.
func TestMain(m *testing.M) {
	if os.Getenv("DEPTREE_RECOVER_CHILD") == "1" {
		os.Exit(recoverChildMain())
	}
	os.Exit(m.Run())
}

// recoverChildMain is the subprocess body: a real server over a WAL in
// DEPTREE_RECOVER_DIR, listening on an ephemeral port it advertises via
// an atomically renamed addr file. DEPTREE_RECOVER_DELAY_MS installs
// the task-delay injector so the parent can reliably SIGKILL mid-job.
func recoverChildMain() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "recover child:", err)
		return 1
	}
	dir := os.Getenv("DEPTREE_RECOVER_DIR")
	if dir == "" {
		return fail(fmt.Errorf("DEPTREE_RECOVER_DIR unset"))
	}
	if ms, _ := strconv.Atoi(os.Getenv("DEPTREE_RECOVER_DELAY_MS")); ms > 0 {
		Install(Options{DelayEvery: 1, Delay: time.Duration(ms) * time.Millisecond})
	}
	wal, err := jobs.OpenWAL(filepath.Join(dir, "jobs.wal"), jobs.WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		return fail(err)
	}
	srv := server.New(server.Config{
		Workers:       2,
		JobStore:      wal,
		JobRunners:    1,
		JobJitterSeed: 7,
		DrainGrace:    10 * time.Millisecond,
		DrainTimeout:  5 * time.Second,
		Obs:           obs.New(),
	})
	if err := srv.JobsErr(); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		return fail(err)
	}
	// The parent only ever SIGKILLs the child, so it runs under a plain
	// background context — there is no graceful path to exercise here.
	if err := srv.Run(context.Background(), ln); err != nil {
		return fail(err)
	}
	return 0
}

// startRecoverChild launches the test binary in child-server mode over
// dir's WAL and returns the process plus its advertised base URL.
func startRecoverChild(t *testing.T, dir string, delayMS int) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(filepath.Join(dir, "addr"))
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"DEPTREE_RECOVER_CHILD=1",
		"DEPTREE_RECOVER_DIR="+dir,
		"DEPTREE_RECOVER_DELAY_MS="+strconv.Itoa(delayMS),
	)
	var childLog bytes.Buffer
	cmd.Stdout = &childLog
	cmd.Stderr = &childLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() && childLog.Len() > 0 {
			t.Logf("child log:\n%s", childLog.String())
		}
	})
	addrPath := filepath.Join(dir, "addr")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(addrPath); err == nil && len(b) > 0 {
			base := string(b)
			waitHTTP(t, base+"/healthz")
			return cmd, base
		}
		if cmd.ProcessState != nil {
			t.Fatalf("child exited before advertising its address:\n%s", childLog.String())
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never advertised its address:\n%s", childLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// jobView is the slice of jobs.View the recovery assertions need.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Retries  int    `json:"retries"`
	Reason   string `json:"reason"`
}

// jobCSV renders the shared recovery relation once; every child must
// parse the same bytes to the same fingerprint.
func jobCSV(t *testing.T, rows int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := relation.WriteCSV(hotel(rows), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// jobBody renders a POST /v1/jobs discover body.
func jobBody(t *testing.T, algo, csv string) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"kind": "discover", "algo": algo, "csv": csv,
		"workers": 2, "timeout_ms": 120000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// submitRecoverJob POSTs a job and returns its status code and view.
func submitRecoverJob(t *testing.T, base, body string) (int, jobView) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v jobView
	if resp.StatusCode == 200 || resp.StatusCode == 202 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode job view: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, v
}

// getRecoverJob GETs one job, optionally long-polling.
func getRecoverJob(t *testing.T, base, id, wait string) (int, jobView) {
	t.Helper()
	url := base + "/v1/jobs/" + id
	if wait != "" {
		url += "?wait=" + wait
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v jobView
	if resp.StatusCode == 200 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode job view: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, v
}

// jobResultText fetches a terminal job's rendered result.
func jobResultText(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("result fetch for %s: status %d\n%s", id, resp.StatusCode, raw)
	}
	return string(raw)
}

// waitRecoverTerminal polls (long-poll per round) until the job is
// terminal, failing after the deadline.
func waitRecoverTerminal(t *testing.T, base, id string, deadline time.Duration) jobView {
	t.Helper()
	until := time.Now().Add(deadline)
	for {
		status, v := getRecoverJob(t, base, id, "5s")
		if status != 200 {
			t.Fatalf("job %s: status %d", id, status)
		}
		switch v.State {
		case "done", "partial", "failed", "cancelled":
			return v
		}
		if time.Now().After(until) {
			t.Fatalf("job %s still %q after %s", id, v.State, deadline)
		}
	}
}

// discoverText is the rendered result of an in-process discovery run
// of algo over csv: what a recovered job must serve byte for byte.
func discoverText(t *testing.T, csv, algo string) string {
	t.Helper()
	rel, err := relation.ReadCSVAuto("expect", []byte(csv), relation.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := server.RunDiscover(context.Background(), rel, algo, server.RunParams{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return jobs.Result{Lines: out.Lines}.Text()
}

// waitRecoverRunning polls until the job is running, failing after the
// deadline.
func waitRecoverRunning(t *testing.T, base, id string, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		_, v := getRecoverJob(t, base, id, "")
		if v.State == "running" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running (state %q)", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecoverKillAndRestartCompletesJobs is the flagship crash-safety
// scenario: a real server process is SIGKILLed while one job runs and
// two more sit queued; a fresh process over the same WAL must replay
// all three to completion with results byte-identical to an in-process
// run of the same algorithms, and a resubmission must be answered from
// the fingerprint cache without recompute (cache-hit counter proof).
func TestRecoverKillAndRestartCompletesJobs(t *testing.T) {
	dir := t.TempDir()
	csv := jobCSV(t, 40)
	algos := []string{"tane", "fastfd", "cords"}

	// Phase 1: a delayed child accepts three jobs and dies mid-first.
	child1, base1 := startRecoverChild(t, dir, 15)
	ids := make([]string, len(algos))
	for i, algo := range algos {
		status, v := submitRecoverJob(t, base1, jobBody(t, algo, csv))
		if status != 202 {
			t.Fatalf("submit %s: status %d", algo, status)
		}
		ids[i] = v.ID
	}
	waitRecoverRunning(t, base1, ids[0], 10*time.Second)
	if err := child1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child1.Wait() // SIGKILL: non-zero exit is the point

	// Phase 2: a fresh process over the same WAL replays the backlog.
	_, base2 := startRecoverChild(t, dir, 0)
	if replayed := metricsGauge(t, base2, "deptree_jobs_replayed_total"); replayed < 2 {
		t.Errorf("jobs replayed after restart = %d, want >= 2", replayed)
	}
	for i, id := range ids {
		v := waitRecoverTerminal(t, base2, id, 60*time.Second)
		if v.State != "done" {
			t.Fatalf("job %s (%s) finished %q (%s), want done", id, algos[i], v.State, v.Reason)
		}
		got := jobResultText(t, base2, id)
		if want := discoverText(t, csv, algos[i]); got != want {
			t.Errorf("job %s (%s) replayed result diverges:\ngot:\n%q\nwant:\n%q", id, algos[i], got, want)
		}
	}

	// Phase 3: resubmitting an already-computed spec is a cache hit.
	status, v := submitRecoverJob(t, base2, jobBody(t, "tane", csv))
	if status != 200 || !v.CacheHit || v.State != "done" {
		t.Errorf("resubmit: status %d cache_hit %v state %q, want 200 true done", status, v.CacheHit, v.State)
	}
	if hits := metricsGauge(t, base2, "deptree_jobs_cache_hits_total"); hits < 1 {
		t.Errorf("deptree_jobs_cache_hits_total = %d, want >= 1", hits)
	}
}

// TestRecoverKillAfterCompaction: a child crosses the default
// 256-append compaction threshold with cache-hit resubmits of one tiny
// finished job, so the finalize of the next job to finish compacts the
// log while two more sit queued. The compacted log keeps the CSVs of
// the unfinished jobs and of no finished one. SIGKILLed while the next
// job runs, the child is replaced by a fresh process that runs the
// unfinished jobs to results byte-identical to an in-process run and
// serves the finished ones from the compacted log.
func TestRecoverKillAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	tiny, csv := jobCSV(t, 6), jobCSV(t, 40)
	algos := []string{"tane", "fastfd", "cords"}

	child1, base1 := startRecoverChild(t, dir, 15)
	status, first := submitRecoverJob(t, base1, jobBody(t, "tane", tiny))
	if status != 202 {
		t.Fatalf("submit tiny job: status %d", status)
	}
	if v := waitRecoverTerminal(t, base1, first.ID, 60*time.Second); v.State != "done" {
		t.Fatalf("tiny job finished %q (%s), want done", v.State, v.Reason)
	}
	// Each cache hit appends one submit record that carries its result:
	// 260 of them cross the 256-append threshold with no job run.
	finished := []string{first.ID}
	for i := 0; i < 260; i++ {
		status, v := submitRecoverJob(t, base1, jobBody(t, "tane", tiny))
		if status != 200 || !v.CacheHit {
			t.Fatalf("resubmit %d: status %d cache_hit %v, want 200 true", i, status, v.CacheHit)
		}
		finished = append(finished, v.ID)
	}
	if n := metricsGauge(t, base1, "deptree_jobs_compactions_total"); n != 0 {
		t.Fatalf("compactions before any job finished = %d, want 0", n)
	}
	ids := make([]string, len(algos))
	for i, algo := range algos {
		status, v := submitRecoverJob(t, base1, jobBody(t, algo, csv))
		if status != 202 {
			t.Fatalf("submit %s: status %d", algo, status)
		}
		ids[i] = v.ID
	}
	// The one runner finalizes ids[0], compacting with ids[1] and ids[2]
	// queued, before it takes ids[1].
	waitRecoverRunning(t, base1, ids[1], 60*time.Second)
	if n := metricsGauge(t, base1, "deptree_jobs_compactions_total"); n != 1 {
		t.Fatalf("compactions once %s ran = %d, want 1", ids[1], n)
	}
	if err := child1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child1.Wait() // SIGKILL: non-zero exit is the point

	store, err := jobs.OpenWAL(filepath.Join(dir, "jobs.wal"), jobs.WALOptions{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.Replay()
	store.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := map[string]string{ids[0]: "", ids[1]: csv, ids[2]: csv}
	for _, id := range finished {
		wantCSV[id] = ""
	}
	submits := 0
	for _, rec := range recs {
		if rec.Type != jobs.RecSubmit {
			continue
		}
		submits++
		if want, ok := wantCSV[rec.ID]; !ok || rec.Spec.CSV != want {
			t.Fatalf("compacted submit of %s carries a %d-byte CSV, want %d bytes", rec.ID, len(rec.Spec.CSV), len(want))
		}
	}
	if submits != len(wantCSV) {
		t.Fatalf("compacted log holds %d submit records, want %d", submits, len(wantCSV))
	}

	_, base2 := startRecoverChild(t, dir, 0)
	if replayed := metricsGauge(t, base2, "deptree_jobs_replayed_total"); replayed < 1 {
		t.Errorf("jobs replayed after restart = %d, want >= 1", replayed)
	}
	for i, id := range ids {
		v := waitRecoverTerminal(t, base2, id, 60*time.Second)
		if v.State != "done" {
			t.Fatalf("job %s (%s) finished %q (%s), want done", id, algos[i], v.State, v.Reason)
		}
		if got, want := jobResultText(t, base2, id), discoverText(t, csv, algos[i]); got != want {
			t.Errorf("job %s (%s) result diverges after restart:\ngot:\n%q\nwant:\n%q", id, algos[i], got, want)
		}
	}
	wantTiny := discoverText(t, tiny, "tane")
	for i, id := range finished {
		status, v := getRecoverJob(t, base2, id, "")
		if status != 200 || v.State != "done" || v.CacheHit != (i > 0) {
			t.Fatalf("finished job %s after restart: status %d state %q cache_hit %v", id, status, v.State, v.CacheHit)
		}
		if got := jobResultText(t, base2, id); got != wantTiny {
			t.Fatalf("finished job %s result diverges after restart:\ngot:\n%q\nwant:\n%q", id, got, wantTiny)
		}
	}
}

// TestRecoverTornWALTailServesPrefix writes a clean job history, then
// simulates a crash mid-append by tearing the WAL's last line: the next
// boot must truncate to the valid prefix, still serve the completed job
// without recompute, and count the truncation.
func TestRecoverTornWALTailServesPrefix(t *testing.T) {
	requireNoGoroutineLeak(t, func() {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "jobs.wal")
		csv := jobCSV(t, 30)

		wal1, err := jobs.OpenWAL(walPath, jobs.WALOptions{SyncEvery: 1, SyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		reg1 := obs.New()
		s1 := server.New(server.Config{Workers: 2, JobStore: wal1, Obs: reg1})
		ts1 := httptest.NewServer(s1.Handler())
		status, v := submitRecoverJob(t, ts1.URL, jobBody(t, "tane", csv))
		if status != 202 {
			t.Fatalf("submit: status %d", status)
		}
		done := waitRecoverTerminal(t, ts1.URL, v.ID, 30*time.Second)
		if done.State != "done" {
			t.Fatalf("job finished %q, want done", done.State)
		}
		wantText := jobResultText(t, ts1.URL, v.ID)
		ts1.Close()
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}

		// A crash mid-append leaves a torn tail: a frame cut partway
		// through, after the header's checksum but before the payload
		// is complete.
		f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		frame := wal.EncodeFrame([]byte(`{"type":"submit","id":"j9","spec":{"kind":"discover"}}`))
		if _, err := f.Write(frame[:len(frame)-7]); err != nil {
			t.Fatal(err)
		}
		f.Close()

		wal2, err := jobs.OpenWAL(walPath, jobs.WALOptions{SyncEvery: 1, SyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		reg2 := obs.New()
		s2 := server.New(server.Config{Workers: 2, JobStore: wal2, Obs: reg2})
		ts2 := httptest.NewServer(s2.Handler())
		defer func() {
			ts2.Close()
			s2.Close()
		}()
		if err := s2.JobsErr(); err != nil {
			t.Fatalf("torn tail broke the job subsystem: %v", err)
		}
		if n := reg2.Counter("jobs.wal.truncated_tail").Value(); n < 1 {
			t.Errorf("truncated-tail counter = %d, want >= 1", n)
		}
		status, v2 := getRecoverJob(t, ts2.URL, v.ID, "")
		if status != 200 || v2.State != "done" {
			t.Fatalf("replayed job: status %d state %q, want 200 done", status, v2.State)
		}
		if got := jobResultText(t, ts2.URL, v.ID); got != wantText {
			t.Errorf("replayed result diverges from original:\ngot:\n%q\nwant:\n%q", got, wantText)
		}
		// Replay repopulated the cache: resubmission never re-runs.
		status, v3 := submitRecoverJob(t, ts2.URL, jobBody(t, "tane", csv))
		if status != 200 || !v3.CacheHit {
			t.Errorf("resubmit after torn-tail replay: status %d cache_hit %v, want 200 true", status, v3.CacheHit)
		}
	})
}

// TestRecoverStoreFaultRetriesTransiently injects store write faults at
// the two seams the retry taxonomy distinguishes: a failing submit
// append surfaces as a retryable 503 (never a half-registered job), and
// a transient start-record fault mid-run is retried with backoff until
// the job completes — with the retry visible in the job's view.
func TestRecoverStoreFaultRetriesTransiently(t *testing.T) {
	requireNoGoroutineLeak(t, func() {
		mem := jobs.NewMemStore()
		s := server.New(server.Config{
			Workers:         2,
			JobStore:        mem,
			JobRetryBackoff: time.Millisecond,
			JobJitterSeed:   11,
			Obs:             obs.New(),
		})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		csv := jobCSV(t, 30)

		// Every append fails: submission must be rejected 503, not queued.
		mem.SetFaultHook(func(op string, rec jobs.Record) error {
			return jobs.Transient{Err: fmt.Errorf("injected %s fault", op)}
		})
		status, _ := submitRecoverJob(t, ts.URL, jobBody(t, "tane", csv))
		if status != 503 {
			t.Fatalf("submit under store fault: status %d, want 503", status)
		}
		mem.SetFaultHook(nil)

		// One start-record fault: the attempt fails transiently, the
		// manager backs off, retries, and the job still completes.
		var faults atomic.Int64
		mem.SetFaultHook(func(op string, rec jobs.Record) error {
			if rec.Type == jobs.RecStart && faults.Add(1) == 1 {
				return jobs.Transient{Err: fmt.Errorf("injected start fault")}
			}
			return nil
		})
		status, v := submitRecoverJob(t, ts.URL, jobBody(t, "fastfd", csv))
		if status != 202 {
			t.Fatalf("submit: status %d", status)
		}
		done := waitRecoverTerminal(t, ts.URL, v.ID, 30*time.Second)
		if done.State != "done" {
			t.Fatalf("faulted job finished %q (%s), want done", done.State, done.Reason)
		}
		if done.Retries < 1 {
			t.Errorf("job retries = %d, want >= 1 after injected start fault", done.Retries)
		}
		mem.SetFaultHook(nil)
	})
}
