// Command benchjson turns the text output of a repeated `go test -bench`
// run into one grouped JSON report and, given a baseline report,
// compares the two.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -count 5 -benchtime 100ms ./... > bench.out
//	benchjson -in bench.out -out bench-report.json -base BENCH.json
//
// The parser accepts the standard benchmark line shape
//
//	BenchmarkName/sub-8   100   12345 ns/op   67 B/op   8 allocs/op
//
// plus the goos/goarch/pkg/cpu header lines. Result lines are grouped by
// package and by name with the GOMAXPROCS suffix ("-8") stripped, so the
// -count repeats of one benchmark form one entry, and a baseline recorded
// under another GOMAXPROCS still matches. Each entry records the repeat
// count, the median and quartiles of ns/op, and the medians of B/op,
// allocs/op and every custom metric.
//
// With -base, the comparison goes to stderr: "compared k of n", the
// benchmarks present on one side only, allocs/op regressions above 20%,
// and ns/op medians that moved by more than the baseline's interquartile
// range. Flags are warnings, not failures: ns/op is only comparable on
// the host that recorded the baseline.
//
// benchjson exits non-zero on a FAIL line, on input with no benchmark
// results, and when -base shares no benchmark with the run, so an
// erroring or mismatched run cannot pass as a plausible report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's results over its -count repeats.
type Benchmark struct {
	// Pkg is the package the benchmark ran in (from the pkg: header).
	Pkg string `json:"pkg"`
	// Name is the benchmark name including the sub-benchmark path,
	// without the GOMAXPROCS suffix (e.g.
	// "BenchmarkEngineWorkers/tane/workers=4").
	Name string `json:"name"`
	// N is the number of result lines grouped into this entry.
	N int `json:"n"`
	// NsPerOp is the median ns/op; NsQ1 and NsQ3 are its quartiles.
	NsPerOp float64 `json:"ns_per_op"`
	NsQ1    float64 `json:"ns_per_op_q1"`
	NsQ3    float64 `json:"ns_per_op_q3"`
	// BytesPerOp and AllocsPerOp are medians; they need -benchmem.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the median of each custom b.ReportMetric unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is the suffix the run's benchmark names carried; 1 when
	// they carried none.
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "benchmark text input (default stdin)")
	out := flag.String("out", "", "JSON report output file (default stdout)")
	base := flag.String("base", "", "baseline report to compare the run with")
	flag.Parse()
	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if err := writeReport(rep, *out); err != nil {
		fatal(err)
	}
	if *base == "" {
		return
	}
	baseRep, err := loadReport(*base)
	if err != nil {
		fatal(err)
	}
	if err := compare(baseRep, rep, os.Stderr); err != nil {
		fatal(fmt.Errorf("%s: %w", *base, err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func writeReport(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// result is one parsed result line.
type result struct {
	pkg, name string
	nsPerOp   float64
	bytes     float64
	allocs    float64
	metrics   map[string]float64
}

// parse reads go-bench text and groups its result lines into a report.
// It fails on a FAIL line or when no benchmark parsed, so an erroring
// benchmark run cannot produce a plausible-looking empty report.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	var results []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "FAIL"):
			return nil, fmt.Errorf("benchmark run failed: %s", line)
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseLine(line)
			if !ok {
				continue
			}
			res.pkg = pkg
			results = append(results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark results in input")
	}
	rep.GOMAXPROCS = stripProcs(results)
	rep.Benchmarks = group(results)
	return rep, nil
}

// parseLine splits "BenchmarkX-8  N  v1 u1  v2 u2 ..." into a result.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	// Name, iterations, then at least one value/unit pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return result{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return result{}, false
	}
	res := result{name: fields[0]}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.nsPerOp = val
		case "B/op":
			res.bytes = val
		case "allocs/op":
			res.allocs = val
		default:
			if res.metrics == nil {
				res.metrics = map[string]float64{}
			}
			res.metrics[unit] = val
		}
	}
	return res, true
}

// stripProcs removes the GOMAXPROCS suffix from every result name and
// returns it. `go test` appends "-N" to every name when GOMAXPROCS is N
// > 1 and nothing at 1, so the suffix is stripped only when every line
// carries the same one: a sub-benchmark whose own name ends in "-2" is
// left alone in a GOMAXPROCS=1 run.
func stripProcs(results []result) int {
	procs := 0
	for _, res := range results {
		i := strings.LastIndexByte(res.name, '-')
		n, err := strconv.Atoi(res.name[i+1:])
		if i < 0 || err != nil || n < 2 || (procs != 0 && n != procs) {
			return 1
		}
		procs = n
	}
	suffix := "-" + strconv.Itoa(procs)
	for i := range results {
		results[i].name = strings.TrimSuffix(results[i].name, suffix)
	}
	return procs
}

// group folds the result lines into one Benchmark per (package, name),
// in first-seen order.
func group(results []result) []Benchmark {
	type samples struct {
		pkg, name         string
		ns, bytes, allocs []float64
		metrics           map[string][]float64
	}
	byKey := map[[2]string]*samples{}
	var order []*samples
	for _, res := range results {
		s := byKey[[2]string{res.pkg, res.name}]
		if s == nil {
			s = &samples{pkg: res.pkg, name: res.name, metrics: map[string][]float64{}}
			byKey[[2]string{res.pkg, res.name}] = s
			order = append(order, s)
		}
		s.ns = append(s.ns, res.nsPerOp)
		s.bytes = append(s.bytes, res.bytes)
		s.allocs = append(s.allocs, res.allocs)
		for unit, v := range res.metrics {
			s.metrics[unit] = append(s.metrics[unit], v)
		}
	}
	out := make([]Benchmark, len(order))
	for i, s := range order {
		b := Benchmark{
			Pkg: s.pkg, Name: s.name, N: len(s.ns),
			NsPerOp:     quantile(s.ns, 0.5),
			NsQ1:        quantile(s.ns, 0.25),
			NsQ3:        quantile(s.ns, 0.75),
			BytesPerOp:  quantile(s.bytes, 0.5),
			AllocsPerOp: quantile(s.allocs, 0.5),
		}
		for unit, xs := range s.metrics {
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = quantile(xs, 0.5)
		}
		out[i] = b
	}
	return out
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics (position q·(n-1) in sorted order).
// For five repeats the quartiles and median are exactly the 2nd, 3rd and
// 4th smallest values. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// allocRegressionFactor flags a benchmark whose median allocs/op grew by
// more than 20% over the baseline.
const allocRegressionFactor = 1.20

// compare writes the run-vs-baseline comparison to w. Benchmarks present
// on one side only are listed but not compared: renames and new suites
// are not regressions. It fails when the two reports share no benchmark,
// since a comparison of nothing must not read as a clean one.
func compare(base, run *Report, w io.Writer) error {
	baseline := make(map[[2]string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[[2]string{b.Pkg, b.Name}] = b
	}
	matched := map[[2]string]bool{}
	var allocFlags, nsFlags, onlyRun []string
	for _, nb := range run.Benchmarks {
		k := [2]string{nb.Pkg, nb.Name}
		ob, ok := baseline[k]
		if !ok {
			onlyRun = append(onlyRun, nb.Pkg+" "+nb.Name)
			continue
		}
		matched[k] = true
		if ob.AllocsPerOp > 0 && nb.AllocsPerOp > ob.AllocsPerOp*allocRegressionFactor {
			allocFlags = append(allocFlags, fmt.Sprintf("%s %s allocs/op %.0f -> %.0f (%+.0f%%)",
				nb.Pkg, nb.Name, ob.AllocsPerOp, nb.AllocsPerOp,
				100*(nb.AllocsPerOp-ob.AllocsPerOp)/ob.AllocsPerOp))
		}
		if iqr := ob.NsQ3 - ob.NsQ1; ob.NsPerOp > 0 && math.Abs(nb.NsPerOp-ob.NsPerOp) > iqr {
			nsFlags = append(nsFlags, fmt.Sprintf("%s %s ns/op %.0f -> %.0f (%+.0f%%, baseline IQR %.0f)",
				nb.Pkg, nb.Name, ob.NsPerOp, nb.NsPerOp,
				100*(nb.NsPerOp-ob.NsPerOp)/ob.NsPerOp, iqr))
		}
	}
	var onlyBase []string
	for _, ob := range base.Benchmarks {
		if !matched[[2]string{ob.Pkg, ob.Name}] {
			onlyBase = append(onlyBase, ob.Pkg+" "+ob.Name)
		}
	}
	fmt.Fprintf(w, "benchjson: compared %d of %d benchmarks (baseline %s/%s %q GOMAXPROCS=%d; run %s/%s %q GOMAXPROCS=%d)\n",
		len(matched), len(run.Benchmarks),
		base.Goos, base.Goarch, base.CPU, base.GOMAXPROCS,
		run.Goos, run.Goarch, run.CPU, run.GOMAXPROCS)
	if len(matched) == 0 {
		return fmt.Errorf("no benchmark in common with the run")
	}
	for _, section := range []struct {
		title string
		lines []string
	}{
		{"only in the run", onlyRun},
		{"only in the baseline", onlyBase},
		{fmt.Sprintf("allocs/op regressed more than %.0f%%", 100*(allocRegressionFactor-1)), allocFlags},
		{"ns/op median moved by more than the baseline IQR", nsFlags},
	} {
		fmt.Fprintf(w, "benchjson: %d %s\n", len(section.lines), section.title)
		for _, line := range section.lines {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	return nil
}
