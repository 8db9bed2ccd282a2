package main

import (
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: deptree
cpu: Example CPU @ 2.00GHz
BenchmarkEngineWorkers/tane/workers=1-8         	      66	  17634504 ns/op	 8211426 B/op	   81341 allocs/op
BenchmarkEngineWorkers/tane/workers=4-8         	     142	   8413288 ns/op	 8464734 B/op	   81420 allocs/op
BenchmarkCustomMetric-8                         	     100	      1234 ns/op	        42.5 widgets/op
PASS
ok  	deptree	3.456s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU == "" || rep.GOMAXPROCS != 8 {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkEngineWorkers/tane/workers=1" || b.N != 1 || b.Pkg != "deptree" ||
		b.NsPerOp != 17634504 || b.NsQ1 != 17634504 || b.NsQ3 != 17634504 ||
		b.BytesPerOp != 8211426 || b.AllocsPerOp != 81341 {
		t.Errorf("benchmark 0 = %+v", b)
	}
	if got := rep.Benchmarks[2].Metrics["widgets/op"]; got != 42.5 {
		t.Errorf("custom metric = %v", got)
	}
}

// TestGroupRepeatsAcrossPackagesAndSuffixes: the -count repeats of one
// benchmark form one entry, a same-named benchmark in another package
// stays separate, and the GOMAXPROCS suffix is stripped whatever it is.
func TestGroupRepeatsAcrossPackagesAndSuffixes(t *testing.T) {
	for _, procs := range []string{"", "-2", "-16"} {
		var in strings.Builder
		for _, pkg := range []string{"deptree", "deptree/internal/wal"} {
			in.WriteString("pkg: " + pkg + "\n")
			for _, ns := range []string{"30", "10", "20"} {
				in.WriteString("BenchmarkA/rows=100" + procs + "\t10\t" + ns + " ns/op\t5 allocs/op\t" + ns + " rows/op\n")
			}
			in.WriteString("BenchmarkB" + procs + "\t10\t7 ns/op\n")
		}
		rep, err := parse(strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Benchmarks) != 4 {
			t.Fatalf("procs %q: %d entries, want 4: %+v", procs, len(rep.Benchmarks), rep.Benchmarks)
		}
		a := rep.Benchmarks[0]
		if a.Pkg != "deptree" || a.Name != "BenchmarkA/rows=100" || a.N != 3 ||
			a.NsPerOp != 20 || a.AllocsPerOp != 5 || a.Metrics["rows/op"] != 20 {
			t.Errorf("procs %q: entry 0 = %+v", procs, a)
		}
		if c := rep.Benchmarks[2]; c.Pkg != "deptree/internal/wal" || c.Name != "BenchmarkA/rows=100" || c.N != 3 {
			t.Errorf("procs %q: entry 2 = %+v", procs, c)
		}
		want := map[string]int{"": 1, "-2": 2, "-16": 16}[procs]
		if rep.GOMAXPROCS != want {
			t.Errorf("procs %q: GOMAXPROCS = %d, want %d", procs, rep.GOMAXPROCS, want)
		}
	}
}

// TestStripProcsNeedsOneSharedSuffix: a trailing "-N" that not every line
// carries is part of the name (a GOMAXPROCS=1 run adds no suffix).
func TestStripProcsNeedsOneSharedSuffix(t *testing.T) {
	results := []result{{name: "BenchmarkA/width-4"}, {name: "BenchmarkB"}}
	if got := stripProcs(results); got != 1 || results[0].name != "BenchmarkA/width-4" {
		t.Errorf("stripProcs = %d, names %+v", got, results)
	}
	results = []result{{name: "BenchmarkA-4"}, {name: "BenchmarkB-8"}}
	if got := stripProcs(results); got != 1 || results[1].name != "BenchmarkB-8" {
		t.Errorf("mixed suffixes: stripProcs = %d, names %+v", got, results)
	}
}

func TestQuantileExact(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Four samples interpolate between order statistics.
	even := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}} {
		if got := quantile(even, c.q); got != c.want {
			t.Errorf("even quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("single-sample quantile = %v", got)
	}
}

func TestParseRejectsFailAndEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("goos: linux\nPASS\n")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := parse(strings.NewReader("")); err == nil {
		t.Error("blank input accepted")
	}
	if _, err := parse(strings.NewReader(sample + "FAIL\tdeptree\t0.1s\n")); err == nil {
		t.Error("FAIL line accepted")
	}
}

func TestParseLineMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX notanumber 5 ns/op",
		"BenchmarkX 10 nope ns/op",
		"BenchmarkX 10 5", // dangling value without unit
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("malformed line accepted: %q", line)
		}
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Pkg: "p", Name: "BenchmarkA", AllocsPerOp: 100},
		{Pkg: "p", Name: "BenchmarkB", AllocsPerOp: 100},
		{Pkg: "p", Name: "BenchmarkGone", AllocsPerOp: 5},
	}}
	run := &Report{Benchmarks: []Benchmark{
		{Pkg: "p", Name: "BenchmarkA", AllocsPerOp: 121}, // +21%: flagged
		{Pkg: "p", Name: "BenchmarkB", AllocsPerOp: 119}, // +19%: inside threshold
		{Pkg: "p", Name: "BenchmarkNew", AllocsPerOp: 9999},
	}}
	var buf strings.Builder
	if err := compare(base, run, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "compared 2 of 3 benchmarks") {
		t.Errorf("missing match count: %q", out)
	}
	if !strings.Contains(out, "1 allocs/op regressed") || !strings.Contains(out, "p BenchmarkA allocs/op 100 -> 121") {
		t.Errorf("regressed benchmark not flagged: %q", out)
	}
	if strings.Contains(out, "BenchmarkB allocs/op") {
		t.Errorf("BenchmarkB (+19%%) flagged: %q", out)
	}
	// One-sided benchmarks are listed, never compared.
	if !strings.Contains(out, "1 only in the run\n  p BenchmarkNew\n") ||
		!strings.Contains(out, "1 only in the baseline\n  p BenchmarkGone\n") {
		t.Errorf("one-sided benchmarks not listed: %q", out)
	}
}

func TestCompareCleanRun(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkA", AllocsPerOp: 100, NsPerOp: 50, NsQ1: 40, NsQ3: 60}}}
	run := &Report{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkA", AllocsPerOp: 12, NsPerOp: 55}}}
	var buf strings.Builder
	if err := compare(base, run, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"compared 1 of 1", "0 allocs/op regressed", "0 ns/op median moved"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("clean comparison should say %q: %q", want, buf.String())
		}
	}
	if _, err := loadReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("unreadable baseline must error")
	}
}

// TestCompareNsRule: an ns/op median is flagged only when it moved by
// more than the baseline's interquartile range, in either direction.
func TestCompareNsRule(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Pkg: "p", Name: "BenchmarkInside", NsPerOp: 100, NsQ1: 90, NsQ3: 120},
		{Pkg: "p", Name: "BenchmarkSlower", NsPerOp: 100, NsQ1: 90, NsQ3: 120},
		{Pkg: "p", Name: "BenchmarkFaster", NsPerOp: 100, NsQ1: 95, NsQ3: 105},
	}}
	run := &Report{Benchmarks: []Benchmark{
		{Pkg: "p", Name: "BenchmarkInside", NsPerOp: 129}, // +29 <= IQR 30
		{Pkg: "p", Name: "BenchmarkSlower", NsPerOp: 131}, // +31 > IQR 30
		{Pkg: "p", Name: "BenchmarkFaster", NsPerOp: 89},  // -11 > IQR 10
	}}
	var buf strings.Builder
	if err := compare(base, run, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 ns/op median moved") ||
		!strings.Contains(out, "BenchmarkSlower ns/op 100 -> 131") ||
		!strings.Contains(out, "BenchmarkFaster ns/op 100 -> 89") {
		t.Errorf("IQR rule not applied: %q", out)
	}
	if strings.Contains(out, "BenchmarkInside ns/op") {
		t.Errorf("change inside the IQR flagged: %q", out)
	}
}

func TestCompareRejectsNoOverlap(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkA"}}}
	for _, run := range []*Report{
		{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkB"}}},
		{Benchmarks: []Benchmark{{Pkg: "q", Name: "BenchmarkA"}}}, // same name, other package
	} {
		var buf strings.Builder
		if err := compare(base, run, &buf); err == nil {
			t.Errorf("k == 0 accepted: %q", buf.String())
		}
	}
}

// TestCompareAcrossGOMAXPROCS: a baseline recorded without a suffix
// matches a run whose names all carry one.
func TestCompareAcrossGOMAXPROCS(t *testing.T) {
	base, err := parse(strings.NewReader("pkg: deptree\nBenchmarkA\t10\t5 ns/op\t3 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := parse(strings.NewReader("pkg: deptree\nBenchmarkA-4\t10\t5 ns/op\t3 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := compare(base, run, &buf); err != nil || !strings.Contains(buf.String(), "compared 1 of 1 benchmarks") {
		t.Errorf("compare = %v: %q", err, buf.String())
	}
}
