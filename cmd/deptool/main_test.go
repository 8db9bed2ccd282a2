package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
	"deptree/internal/server"
)

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}

func TestCmdReportArtifacts(t *testing.T) {
	cases := map[string]string{
		"table2":   "Conditional Sequential",
		"table3":   "Violation detection",
		"tree":     "FD (root)",
		"pubs":     "FFD",
		"timeline": "1971",
		"fig3":     "NP-complete",
		"dot":      "digraph familytree",
		"verify":   "all 24 family-tree edges verified",
	}
	for artifact, want := range cases {
		out, err := capture(t, func() error { return cmdReport([]string{artifact}) })
		if err != nil {
			t.Errorf("report %s: %v", artifact, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("report %s missing %q:\n%.200s", artifact, want, out)
		}
	}
	if err := cmdReport([]string{"nope"}); err == nil {
		t.Error("unknown artifact accepted")
	}
	if err := cmdReport(nil); err == nil {
		t.Error("missing artifact accepted")
	}
}

func writeHotelsCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hotels.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := gen.Hotels(gen.HotelConfig{Rows: 40, Seed: 5, ErrorRate: 0.1})
	if err := relation.WriteCSV(r, f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCSVInfersKinds(t *testing.T) {
	path := writeHotelsCSV(t)
	r, err := loadCSV(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 40 {
		t.Errorf("rows = %d", r.Rows())
	}
	if r.Schema().Attr(r.Schema().MustIndex("price")).Kind != relation.KindFloat {
		t.Error("price should infer numeric")
	}
	if r.Schema().Attr(r.Schema().MustIndex("name")).Kind != relation.KindString {
		t.Error("name should stay string")
	}
	if _, err := loadCSV(filepath.Join(t.TempDir(), "missing.csv"), 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseFD(t *testing.T) {
	r := gen.Table1()
	f, err := server.ParseFD(r.Schema(), "address, name -> region")
	if err != nil {
		t.Fatal(err)
	}
	if f.LHS.Len() != 2 || f.RHS.Len() != 1 {
		t.Errorf("parsed %v", f)
	}
	if _, err := server.ParseFD(r.Schema(), "no arrow"); err == nil {
		t.Error("missing arrow accepted")
	}
	if _, err := server.ParseFD(r.Schema(), "bogus->region"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestCmdDiscoverValidateRepair(t *testing.T) {
	path := writeHotelsCSV(t)
	out, err := capture(t, func() error {
		return cmdDiscover([]string{"-in", path, "-algo", "tane"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "->") {
		t.Errorf("discover output:\n%s", out)
	}
	for _, algo := range []string{"fastfd", "cords", "od"} {
		if _, err := capture(t, func() error {
			return cmdDiscover([]string{"-in", path, "-algo", algo})
		}); err != nil {
			t.Errorf("discover %s: %v", algo, err)
		}
	}
	if err := cmdDiscover([]string{"-in", path, "-algo", "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := cmdDiscover([]string{"-algo", "tane"}); err == nil {
		t.Error("missing -in accepted")
	}

	out, err = capture(t, func() error {
		return cmdValidate([]string{"-in", path, "-fd", "address->region"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "g3 error:") {
		t.Errorf("validate output:\n%s", out)
	}

	repaired := filepath.Join(t.TempDir(), "repaired.csv")
	if _, err := capture(t, func() error {
		return cmdRepair([]string{"-in", path, "-fd", "address->region", "-out", repaired})
	}); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error {
		return cmdValidate([]string{"-in", repaired, "-fd", "address->region"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "g3 error: 0.0000") {
		t.Errorf("repaired file still dirty:\n%s", out)
	}
}

func TestCmdProfile(t *testing.T) {
	path := writeHotelsCSV(t)
	out, err := capture(t, func() error { return cmdProfile([]string{"-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"exact minimal FDs", "soft FDs", "denial constraints"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q:\n%s", want, out)
		}
	}
	if err := cmdProfile(nil); err == nil {
		t.Error("missing -in accepted")
	}
}

// A -max-tasks budget small enough to truncate the run must yield the
// PARTIAL marker, the errPartial sentinel (exit code 2), and the same
// stdout for any -workers value.
func TestCmdDiscoverPartialBudget(t *testing.T) {
	path := writeHotelsCSV(t)
	out, err := capture(t, func() error {
		return cmdDiscover([]string{"-in", path, "-algo", "od", "-max-tasks", "5"})
	})
	if !errors.Is(err, errPartial) {
		t.Fatalf("budgeted discover returned %v, want errPartial", err)
	}
	if !strings.Contains(out, "PARTIAL: max-tasks") {
		t.Fatalf("missing PARTIAL marker:\n%s", out)
	}

	run := func(workers string) (string, error) {
		return capture(t, func() error {
			return cmdDiscover([]string{"-in", path, "-algo", "od", "-max-tasks", "33", "-workers", workers})
		})
	}
	seq, seqErr := run("1")
	par, parErr := run("4")
	if !errors.Is(seqErr, errPartial) || !errors.Is(parErr, errPartial) {
		t.Fatalf("errors = %v / %v, want errPartial", seqErr, parErr)
	}
	if seq != par {
		t.Fatalf("partial output depends on workers:\n--- w1 ---\n%s--- w4 ---\n%s", seq, par)
	}
}

func TestCmdProfilePartialBudget(t *testing.T) {
	path := writeHotelsCSV(t)
	out, err := capture(t, func() error {
		return cmdProfile([]string{"-in", path, "-max-tasks", "5"})
	})
	if !errors.Is(err, errPartial) {
		t.Fatalf("budgeted profile returned %v, want errPartial", err)
	}
	if !strings.Contains(out, "PARTIAL:") || !strings.Contains(out, "[partial: max-tasks]") {
		t.Fatalf("missing partial markers:\n%s", out)
	}
	// The constant-CFD section runs under the same per-section budget.
	if !strings.Contains(out, "constant CFDs: max-tasks") {
		t.Fatalf("constant-CFD section ignored the budget:\n%s", out)
	}
}

func TestCmdProfileVerboseCacheStats(t *testing.T) {
	path := writeHotelsCSV(t)
	out, err := capture(t, func() error {
		return cmdProfile([]string{"-in", path, "-v"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "partition cache:") || !strings.Contains(out, "hits") {
		t.Fatalf("profile -v missing cache statistics:\n%s", out)
	}
	// The two TANE passes share the cache, so the approximate pass must
	// have produced hits.
	if strings.Contains(out, "partition cache: 0 hits") {
		t.Fatalf("shared cache saw no hits:\n%s", out)
	}
}

func TestCmdGen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.csv")
	if _, err := capture(t, func() error {
		return cmdGen([]string{"-rows", "25", "-errors", "0.1", "-out", path})
	}); err != nil {
		t.Fatal(err)
	}
	r, err := loadCSV(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 25 {
		t.Errorf("generated %d rows", r.Rows())
	}
}

// validate with several rules and a -max-tasks budget must stop on a rule
// boundary, print the PARTIAL marker and return errPartial, with stdout
// identical for any -workers value.
func TestCmdValidatePartialBudget(t *testing.T) {
	path := writeHotelsCSV(t)
	rules := "address->region;name->region;price->region"
	run := func(workers string) (string, error) {
		return capture(t, func() error {
			return cmdValidate([]string{"-in", path, "-fd", rules, "-max-tasks", "1", "-workers", workers})
		})
	}
	seq, seqErr := run("1")
	par, parErr := run("4")
	if !errors.Is(seqErr, errPartial) || !errors.Is(parErr, errPartial) {
		t.Fatalf("errors = %v / %v, want errPartial", seqErr, parErr)
	}
	if !strings.Contains(seq, "PARTIAL: max-tasks (checked 1 of 3 rules)") {
		t.Fatalf("missing PARTIAL marker:\n%s", seq)
	}
	if seq != par {
		t.Fatalf("partial output depends on workers:\n--- w1 ---\n%s--- w4 ---\n%s", seq, par)
	}
}

// repair under an exhausted budget still writes a (partially repaired)
// instance, marks it PARTIAL and exits 2.
func TestCmdRepairPartialBudget(t *testing.T) {
	path := writeHotelsCSV(t)
	out, err := capture(t, func() error {
		return cmdRepair([]string{"-in", path, "-fd", "address->region", "-max-tasks", "1"})
	})
	if !errors.Is(err, errPartial) {
		t.Fatalf("budgeted repair returned %v, want errPartial", err)
	}
	if !strings.Contains(out, "PARTIAL: max-tasks") {
		t.Fatalf("missing PARTIAL marker:\n%s", out)
	}
	// The CSV must still be written (header + 40 rows before the marker).
	if lines := strings.Count(out, "\n"); lines < 41 {
		t.Fatalf("partial repair wrote %d lines:\n%.400s", lines, out)
	}
}

// -trace-out must produce one valid JSON event per line, including the
// discoverer's run span.
func TestCmdDiscoverTraceOut(t *testing.T) {
	path := writeHotelsCSV(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, err := capture(t, func() error {
		return cmdDiscover([]string{"-in", path, "-algo", "tane", "-trace-out", trace})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace has %d events", len(lines))
	}
	var sawRun bool
	for _, line := range lines {
		var ev struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
			Dur  *int64 `json:"dur_ns"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Dur == nil {
			t.Fatalf("trace line missing dur_ns: %q", line)
		}
		if ev.Kind == "run" && ev.Name == "tane" {
			sawRun = true
		}
	}
	if !sawRun {
		t.Fatalf("no tane run span in trace:\n%s", data)
	}
}

// The -metrics-addr server must expose the run's registry as Prometheus
// text and the expvar JSON dump.
func TestMetricsServer(t *testing.T) {
	f := &runFrame{metricsAddr: "127.0.0.1:0"}
	x, err := f.start()
	if err != nil {
		t.Fatal(err)
	}
	defer f.finish(engine.Stop{}, nil)
	x.Obs.Counter("test.requests").Add(3)
	get := func(path string) string {
		resp, err := http.Get("http://" + metricsAddrBound + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if prom := get("/metrics"); !strings.Contains(prom, "deptree_test_requests_total 3") {
		t.Fatalf("prometheus exposition missing counter:\n%s", prom)
	}
	vars := get("/debug/vars")
	var dump map[string]any
	if err := json.Unmarshal([]byte(vars), &dump); err != nil {
		t.Fatalf("expvar dump is not valid JSON (%v):\n%.300s", err, vars)
	}
	if _, ok := dump["deptree"]; !ok {
		t.Fatalf("expvar dump missing the deptree registry var:\n%.300s", vars)
	}
}

// profile -v must print the obs registry snapshot: engine task counters,
// cache counters and per-discoverer stage latencies (the PR's acceptance
// criterion).
func TestCmdProfileVerboseRegistry(t *testing.T) {
	path := writeHotelsCSV(t)
	out, err := capture(t, func() error {
		return cmdProfile([]string{"-in", path, "-v"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "observability registry:") {
		t.Fatalf("profile -v missing registry section:\n%s", out)
	}
	for _, want := range []string{
		"engine.tasks.completed", "engine.tasks.panicked", "engine.tasks.cancelled",
		"cache.hits", "cache.misses", "cache.evictions",
		"tane.level.seconds", "cords.pairs.seconds", "oddisc.checks.seconds", "fastdc.evidence.seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile -v missing %q", want)
		}
	}
}
