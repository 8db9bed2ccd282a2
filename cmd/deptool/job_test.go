package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"deptree/internal/obs"
	"deptree/internal/server"
)

// newJobTestServer brings up an in-process server (in-memory job store)
// and returns its base URL.
func newJobTestServer(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, Obs: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// TestCmdJobSubmitWaitMatchesCLI is the CLI-level differential gate: a
// job submitted and waited on through `deptool job` must print the same
// bytes as a local `deptool discover` on the same CSV.
func TestCmdJobSubmitWaitMatchesCLI(t *testing.T) {
	url := newJobTestServer(t)
	path := writeHotelsCSV(t)

	cliOut, cliErr := capture(t, func() error {
		return cmdDiscover([]string{"-in", path, "-algo", "tane", "-workers", "2"})
	})
	if cliErr != nil {
		t.Fatalf("cli discover: %v", cliErr)
	}
	jobOut, jobErr := capture(t, func() error {
		return cmdJob([]string{"submit", "-addr", url, "-in", path, "-algo", "tane", "-workers", "2", "-wait"})
	})
	if jobErr != nil {
		t.Fatalf("job submit -wait: %v", jobErr)
	}
	if jobOut != cliOut {
		t.Errorf("job result diverges from CLI:\njob:\n%q\ncli:\n%q", jobOut, cliOut)
	}
}

// TestCmdJobStatusWaitCancelList walks the remaining subcommands against
// a live job: submit without -wait prints the ID, status/list know it,
// wait blocks to the terminal result, cancel answers for a done job.
func TestCmdJobStatusWaitCancelList(t *testing.T) {
	url := newJobTestServer(t)
	path := writeHotelsCSV(t)

	out, err := capture(t, func() error {
		return cmdJob([]string{"submit", "-addr", url, "-in", path, "-algo", "fastfd"})
	})
	if err != nil {
		t.Fatalf("job submit: %v", err)
	}
	id := strings.TrimSpace(out)
	if !strings.HasPrefix(id, "j") {
		t.Fatalf("submit did not print a job ID: %q", out)
	}

	if _, err := capture(t, func() error {
		return cmdJob([]string{"wait", "-addr", url, "-id", id, "-timeout", "30s"})
	}); err != nil {
		t.Fatalf("job wait: %v", err)
	}

	out, err = capture(t, func() error {
		return cmdJob([]string{"status", "-addr", url, "-id", id})
	})
	if err != nil {
		t.Fatalf("job status: %v", err)
	}
	if !strings.Contains(out, `"state": "done"`) {
		t.Errorf("status output missing done state:\n%s", out)
	}

	out, err = capture(t, func() error {
		return cmdJob([]string{"list", "-addr", url})
	})
	if err != nil {
		t.Fatalf("job list: %v", err)
	}
	if !strings.Contains(out, id) {
		t.Errorf("list output missing job %s:\n%s", id, out)
	}

	// Cancelling a terminal job is a no-op answer, not an error.
	if _, err := capture(t, func() error {
		return cmdJob([]string{"cancel", "-addr", url, "-id", id})
	}); err != nil {
		t.Fatalf("job cancel: %v", err)
	}
}

// TestCmdJobErrors pins the client-side failure modes: missing flags,
// unknown subcommand, and the server's error envelope surfacing as a
// readable CLI error.
func TestCmdJobErrors(t *testing.T) {
	url := newJobTestServer(t)

	if err := cmdJob(nil); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := cmdJob([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := cmdJobSubmit([]string{"-addr", url}); err == nil {
		t.Error("submit without -in accepted")
	}
	if err := cmdJobStatus([]string{"-addr", url}); err == nil {
		t.Error("status without -id accepted")
	}
	if err := cmdJobWait([]string{"-addr", url}); err == nil {
		t.Error("wait without -id accepted")
	}
	if err := cmdJobCancel([]string{"-addr", url}); err == nil {
		t.Error("cancel without -id accepted")
	}

	err := cmdJobStatus([]string{"-addr", url, "-id", "j999999-deadbeef"})
	if err == nil || !strings.Contains(err.Error(), "unknown_job") {
		t.Errorf("unknown job error = %v, want unknown_job envelope", err)
	}
}

// TestCmdServeJobsDirRejectsBadPath pins the -jobs-dir failure path: an
// unopenable WAL location fails fast instead of serving without
// durability.
func TestCmdServeJobsDirRejectsBadPath(t *testing.T) {
	if err := cmdServe([]string{"-addr", "127.0.0.1:0", "-jobs-dir", "/proc/definitely/not/writable"}); err == nil {
		t.Error("unwritable -jobs-dir accepted")
	}
}

// TestJobTextMatchesSyncAndCLI is the three-way text differential: for
// discover, validate and repair, complete and truncated by a one-task
// budget, a job's text (as `deptool job submit -wait` prints it) equals
// the sync endpoint's ?format=text reply and the CLI's stdout.
func TestJobTextMatchesSyncAndCLI(t *testing.T) {
	url := newJobTestServer(t)
	path := writeHotelsCSV(t)
	csvBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const fds = "name->region;address->region;region->star"
	cases := []struct {
		name  string
		cli   func(args []string) error
		flags []string // shared by the CLI command and `job submit`
		kind  []string // `job submit` flags selecting the run
		route string
		body  map[string]any
	}{
		{"discover", cmdDiscover, []string{"-algo", "tane"}, nil,
			"/v1/discover/tane", map[string]any{}},
		{"validate", cmdValidate, []string{"-fd", fds}, []string{"-kind", "validate", "-fds", fds},
			"/v1/validate", map[string]any{"fds": fds}},
		{"repair", cmdRepair, []string{"-fd", "region->star"}, []string{"-kind", "repair", "-fd", "region->star"},
			"/v1/repair", map[string]any{"fd": "region->star"}},
	}
	for _, c := range cases {
		for _, partial := range []bool{true, false} { // partial first: complete results are cached
			t.Run(fmt.Sprintf("%s/partial=%v", c.name, partial), func(t *testing.T) {
				budget := []string{"-workers", "2"}
				body := map[string]any{"csv": string(csvBytes), "workers": 2}
				if partial {
					budget = append(budget, "-max-tasks", "1")
					body["max_tasks"] = 1
				}
				for k, v := range c.body {
					body[k] = v
				}
				wantErr := error(nil)
				if partial {
					wantErr = errPartial
				}
				cliOut, cliErr := capture(t, func() error {
					return c.cli(append(append([]string{"-in", path}, c.flags...), budget...))
				})
				if cliErr != wantErr {
					t.Fatalf("cli %s: err %v, want %v", c.name, cliErr, wantErr)
				}
				if n := strings.Count(cliOut, "PARTIAL:"); n != map[bool]int{false: 0, true: 1}[partial] {
					t.Errorf("cli output carries %d PARTIAL markers:\n%s", n, cliOut)
				}
				data, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				status, syncOut := postText(t, url+c.route+"?format=text", string(data))
				if status != 200 {
					t.Fatalf("sync status %d: %s", status, syncOut)
				}
				kind := c.kind
				if kind == nil {
					kind = c.flags
				}
				jobOut, jobErr := capture(t, func() error {
					args := append([]string{"submit", "-addr", url, "-in", path, "-wait"}, kind...)
					return cmdJob(append(args, budget...))
				})
				if jobErr != wantErr {
					t.Fatalf("job %s: err %v, want %v", c.name, jobErr, wantErr)
				}
				if syncOut != cliOut {
					t.Errorf("sync text diverges from CLI:\nsync:\n%q\ncli:\n%q", syncOut, cliOut)
				}
				if jobOut != cliOut {
					t.Errorf("job text diverges from CLI:\njob:\n%q\ncli:\n%q", jobOut, cliOut)
				}
			})
		}
	}
}
