package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// submitJob posts a job request and decodes the returned view.
func submitJob(t *testing.T, url, body string, hdr map[string]string) (int, jobs.View) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var v jobs.View
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("job view decode: %v\n%s", err, b)
		}
	}
	return resp.StatusCode, v
}

// getJob fetches a job, optionally long-polling.
func getJob(t *testing.T, url, id, query string) (int, jobs.View) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var v jobs.View
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("job view decode: %v\n%s", err, b)
		}
	}
	return resp.StatusCode, v
}

func TestJobSubmitDiscoverMatchesSyncEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	csv := hotelsCSV(t)

	// The synchronous endpoint's text rendering is the reference.
	code, syncBody := post(t, ts.URL+"/v1/discover/tane?format=text", mustJSON(t, map[string]any{"csv": csv}))
	if code != 200 {
		t.Fatalf("sync discover = %d: %s", code, syncBody)
	}

	code, v := submitJob(t, ts.URL, mustJSON(t, map[string]any{"kind": "discover", "algo": "tane", "csv": csv}), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if v.ID == "" || v.Fingerprint == "" {
		t.Fatalf("submit view incomplete: %+v", v)
	}

	code, got := getJob(t, ts.URL, v.ID, "?wait=10s")
	if code != 200 || got.State != jobs.StateDone {
		t.Fatalf("wait = %d state=%s reason=%q", code, got.State, got.Reason)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(text) != string(syncBody) {
		t.Fatalf("job text result differs from sync endpoint:\njob:  %q\nsync: %q", text, syncBody)
	}
}

func TestJobSubmitValidateAndRepair(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, v := submitJob(t, ts.URL, mustJSON(t, map[string]any{
		"kind": "validate", "csv": smallCSV, "fds": "name->city"}), nil)
	if code != http.StatusAccepted {
		t.Fatalf("validate submit = %d", code)
	}
	_, got := getJob(t, ts.URL, v.ID, "?wait=10s")
	if got.State != jobs.StateDone || got.Result == nil || !strings.Contains(got.Result.Report, "name") {
		t.Fatalf("validate job = %+v", got)
	}

	code, v = submitJob(t, ts.URL, mustJSON(t, map[string]any{
		"kind": "repair", "csv": smallCSV, "fd": "name->city"}), nil)
	if code != http.StatusAccepted {
		t.Fatalf("repair submit = %d", code)
	}
	_, got = getJob(t, ts.URL, v.ID, "?wait=10s")
	if got.State != jobs.StateDone || got.Result == nil || got.Result.CSV == "" {
		t.Fatalf("repair job = %+v", got)
	}
}

func TestJobSubmitRejectsMalformedInput(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name, body, wantCode string
		wantStatus           int
	}{
		{"unknown kind", mustJSON(t, map[string]any{"kind": "mine", "csv": smallCSV}), "invalid_kind", 400},
		{"unknown algo", mustJSON(t, map[string]any{"kind": "discover", "algo": "nope", "csv": smallCSV}), "unknown_algo", 404},
		{"missing csv", mustJSON(t, map[string]any{"kind": "discover", "algo": "tane"}), "missing_csv", 400},
		{"ragged csv", mustJSON(t, map[string]any{"kind": "discover", "algo": "tane", "csv": "a,b\n1\n"}), "invalid_csv", 400},
		{"bad fd list", mustJSON(t, map[string]any{"kind": "validate", "csv": smallCSV, "fds": "nope->"}), "invalid_fd", 400},
		{"bad fd", mustJSON(t, map[string]any{"kind": "repair", "csv": smallCSV, "fd": "zzz->name"}), "invalid_fd", 400},
		{"unknown knob", `{"kind":"discover","algo":"tane","csv":"a\n1\n","wrokers":3}`, "bad_request", 400},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+"/v1/jobs", tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, status, tc.wantStatus, body)
			continue
		}
		if code := errCode(t, body); code != tc.wantCode {
			t.Errorf("%s: code = %s, want %s", tc.name, code, tc.wantCode)
		}
	}

	// Unknown job IDs 404 on both get and cancel.
	if status, body := post(t, ts.URL+"/v1/jobs/j999999-feedface/cancel", ""); status != 404 || errCode(t, body) != "unknown_job" {
		t.Errorf("cancel unknown = %d %s", status, body)
	}
	if status, _ := getJob(t, ts.URL, "j999999-feedface", ""); status != 404 {
		t.Errorf("get unknown = %d, want 404", status)
	}
}

func TestJobIdempotencyKeyOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := mustJSON(t, map[string]any{"kind": "discover", "algo": "tane", "csv": smallCSV})
	hdr := map[string]string{"Idempotency-Key": "req-7"}
	_, a := submitJob(t, ts.URL, body, hdr)
	_, b := submitJob(t, ts.URL, body, hdr)
	if a.ID != b.ID {
		t.Fatalf("idempotent resubmit created a new job: %s vs %s", a.ID, b.ID)
	}
}

func TestJobFingerprintCacheOverHTTP(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Config{Workers: 2, Obs: reg})
	body := mustJSON(t, map[string]any{"kind": "discover", "algo": "fastfd", "csv": smallCSV})

	_, a := submitJob(t, ts.URL, body, nil)
	if _, got := getJob(t, ts.URL, a.ID, "?wait=10s"); got.State != jobs.StateDone {
		t.Fatalf("first job state = %s", got.State)
	}

	code, b := submitJob(t, ts.URL, body, nil)
	if code != http.StatusOK {
		t.Fatalf("cache-hit submit = %d, want 200 (result inline)", code)
	}
	if !b.CacheHit || b.State != jobs.StateDone || b.Result == nil {
		t.Fatalf("cache-hit view = %+v", b)
	}
	if got := reg.Counter("jobs.cache.hits").Value(); got != 1 {
		t.Fatalf("jobs.cache.hits = %d, want 1", got)
	}
	// The Prometheus exposition carries the counter for the smoke test.
	resp, _ := http.Get(ts.URL + "/metrics")
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "deptree_jobs_cache_hits_total 1") {
		t.Fatalf("metrics missing deptree_jobs_cache_hits_total 1")
	}
	_ = s
}

func TestJobListAndCancelEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, a := submitJob(t, ts.URL, mustJSON(t, map[string]any{"kind": "discover", "algo": "tane", "csv": smallCSV}), nil)
	getJob(t, ts.URL, a.ID, "?wait=10s")

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Count int         `json:"count"`
		Jobs  []jobs.View `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Count != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != a.ID {
		t.Fatalf("list = %+v", list)
	}
	if list.Jobs[0].Result != nil {
		t.Fatal("list must omit result payloads")
	}

	// Cancelling a terminal job is a no-op 200.
	code, body := post(t, ts.URL+"/v1/jobs/"+a.ID+"/cancel", "")
	if code != 200 {
		t.Fatalf("cancel terminal = %d %s", code, body)
	}
	var cv jobs.View
	json.Unmarshal(body, &cv)
	if cv.State != jobs.StateDone {
		t.Fatalf("cancel of done job changed state to %s", cv.State)
	}
}

// TestDrainPersistsJobsAndRestartResumes is the graceful-drain × jobs
// interaction: with one job running (blocked in admission) and two
// queued, BeginDrain must flip readyz to 503, reject new submissions,
// leave all three jobs non-terminal in the WAL, and a restarted server
// over the same directory must replay and complete every one.
func TestDrainPersistsJobsAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "jobs.wal")
	w, err := jobs.OpenWAL(walPath, jobs.WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Workers:    2,
		JobStore:   w,
		JobRunners: 1,
	})

	// Occupy the whole admission semaphore so the first job blocks in
	// acquire (state running), and the rest stay queued.
	if err := s.adm.acquire(context.Background(), s.cfg.MaxConcurrency); err != nil {
		t.Fatal(err)
	}

	var ids []string
	for _, algo := range []string{"tane", "fastfd", "cords"} {
		code, v := submitJob(t, ts.URL, mustJSON(t, map[string]any{
			"kind": "discover", "algo": algo, "csv": smallCSV}), nil)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", algo, code)
		}
		ids = append(ids, v.ID)
	}
	// Wait until the first job is running (blocked in admission).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, v := getJob(t, ts.URL, ids[0], ""); v.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never reached running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.BeginDrain()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if code, body := post(t, ts.URL+"/v1/jobs", mustJSON(t, map[string]any{
		"kind": "discover", "algo": "od", "csv": smallCSV})); code != http.StatusServiceUnavailable || errCode(t, body) != "draining" {
		t.Fatalf("submit during drain = %d %s", code, body)
	}
	for _, id := range ids {
		if _, v := getJob(t, ts.URL, id, ""); v.State.Terminal() {
			t.Fatalf("job %s went terminal during drain: %s", id, v.State)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same WAL: all three jobs replay and complete.
	w2, err := jobs.OpenWAL(walPath, jobs.WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.New()
	s2, _ := newTestServer(t, Config{Workers: 2, JobStore: w2, JobRunners: 1, Obs: reg2})
	if got := reg2.Counter("jobs.replayed").Value(); got != 3 {
		t.Fatalf("jobs.replayed = %d, want 3", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		v, ok := s2.Jobs().Wait(ctx, id, 30*time.Second)
		if !ok || v.State != jobs.StateDone {
			t.Fatalf("replayed job %s = %s (reason %q)", id, v.State, v.Reason)
		}
	}
}

// TestReadmeJobsEndpointTable keeps the README "Async jobs" quickstart
// in lockstep with the served routes, the same contract the registry
// enforces for the discover table.
func TestReadmeJobsEndpointTable(t *testing.T) {
	readme := ""
	for dir := "."; ; dir = filepath.Join(dir, "..") {
		p := filepath.Join(dir, "README.md")
		if b, err := os.ReadFile(p); err == nil {
			readme = string(b)
			break
		}
		if abs, _ := filepath.Abs(dir); abs == "/" {
			t.Fatal("README.md not found walking up from the package directory")
		}
	}
	for _, route := range []string{
		"`POST /v1/jobs`",
		"`GET /v1/jobs/{id}`",
		"`GET /v1/jobs`",
		"`POST /v1/jobs/{id}/cancel`",
	} {
		if !strings.Contains(readme, route) {
			t.Errorf("README is missing the async-jobs route %s", route)
		}
	}
	for _, state := range []jobs.State{jobs.StateQueued, jobs.StateRunning, jobs.StateDone,
		jobs.StatePartial, jobs.StateFailed, jobs.StateCancelled} {
		if !strings.Contains(readme, fmt.Sprintf("`%s`", state)) {
			t.Errorf("README is missing the job state `%s`", state)
		}
	}
}

// TestParseWaitMalformedAndOverflow pins parseWait against every
// malformed ?wait= shape: empty, zero, negative (both bare-number and
// duration syntax), unparseable, and bare numbers large enough that the
// naive seconds→Duration multiplication would overflow into a negative
// or wrapped value. Malformed or non-positive always means no-wait;
// anything positive is clamped to maxJobWait.
func TestParseWaitMalformedAndOverflow(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"-5", 0},
		{"-0", 0},
		{"5", 5 * time.Second},
		{"30", maxJobWait},
		{"31", maxJobWait},                  // clamp above the cap
		{"9223372036854775807", maxJobWait}, // MaxInt64 secs: naive multiply wraps negative
		{"9223372036854", maxJobWait},       // ~MaxInt64/1e9 secs: wraps past the cap
		{"99999999999999999999999999", 0},   // Atoi range error, ParseDuration error -> no-wait
		{"2s", 2 * time.Second},
		{"-2s", 0},
		{"0s", 0},
		{"500ms", 500 * time.Millisecond},
		{"0.5s", 500 * time.Millisecond},
		{"1h", maxJobWait},
		{"2540400h", maxJobWait}, // ParseDuration caps at MaxInt64 ns internally
		{"abc", 0},
		{"5x", 0},
		{" 5", 0},               // no trimming: not a valid int or duration
		{"+5", 5 * time.Second}, // Atoi accepts an explicit sign
	}
	for _, tc := range cases {
		if got := parseWait(tc.in); got != tc.want {
			t.Errorf("parseWait(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if got := parseWait(tc.in); got < 0 || got > maxJobWait {
			t.Errorf("parseWait(%q) = %v outside [0, %v]", tc.in, got, maxJobWait)
		}
	}
}

// TestJobRetryReusesPreparedRelation: a job submitted with its parsed
// relation hands that one relation to every attempt, and the attempt
// after a transient failure renders byte-identically to a run that
// parses the CSV itself, as a WAL-replayed job does. Repair is in the
// set because it is the kind that writes cells, on its own clone.
func TestJobRetryReusesPreparedRelation(t *testing.T) {
	s := New(Config{Workers: 2, Obs: obs.New()})
	defer s.Close()
	csv := hotelsCSV(t)
	for _, spec := range []jobs.Spec{
		{Kind: "discover", Algo: "tane", CSV: csv, Workers: 2},
		{Kind: "validate", CSV: csv, FDs: "address->region;region->name", Workers: 2},
		{Kind: "repair", CSV: csv, FD: "address->region", Workers: 2},
	} {
		t.Run(spec.Kind, func(t *testing.T) {
			want, err := s.runJob(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			tk, e := s.prepare("job", spec)
			if e != nil {
				t.Fatal(e)
			}
			spec.Rel = tk.rel

			var rels []*relation.Relation
			var texts []string
			m, err := jobs.New(jobs.Config{
				Runners: 1, RetryBackoff: time.Millisecond, JitterSeed: 1, CompactEvery: -1,
				Run: func(ctx context.Context, sp jobs.Spec) (jobs.Result, error) {
					rels = append(rels, sp.Rel)
					res, err := s.runJob(ctx, sp)
					if err != nil {
						return res, err
					}
					texts = append(texts, res.Text())
					if len(rels) == 1 {
						return jobs.Result{}, jobs.Transient{Err: fmt.Errorf("injected fault")}
					}
					return res, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			v, err := m.Submit(spec, "")
			if err != nil {
				t.Fatal(err)
			}
			got, _ := m.Wait(context.Background(), v.ID, 30*time.Second)
			if got.State != jobs.StateDone || got.Attempts != 2 {
				t.Fatalf("job state=%s attempts=%d reason=%q, want done after 2", got.State, got.Attempts, got.Reason)
			}
			if len(rels) != 2 || rels[0] != spec.Rel || rels[1] != spec.Rel {
				t.Fatalf("attempts saw relations %v, want the submitted %p twice", rels, spec.Rel)
			}
			for i, text := range texts {
				if text != want.Text() {
					t.Fatalf("attempt %d differs from the parsing run:\n%q\nvs\n%q", i+1, text, want.Text())
				}
			}
			if got.Result.Text() != want.Text() {
				t.Fatal("job result differs from the parsing run")
			}
		})
	}
}
