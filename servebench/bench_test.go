package main

import (
	"crypto/sha256"
	"errors"
	"hash"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// seq returns n, n-1, ..., 1.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if v, err := percentile(seq(199), 0.95); !errors.Is(err, errThinTail) {
		t.Errorf("p95 of 199 samples = %v, %v; want errThinTail (9 above)", v, err)
	}
	if v, err := percentile(seq(200), 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 200 samples = %v, %v; want 190 with 10 above", v, err)
	}
	if _, err := percentile(make([]float64, 500), 0.95); !errors.Is(err, errThinTail) {
		t.Errorf("p95 of 500 equal samples: %v; want errThinTail (none above)", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples: want an error")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	for _, c := range []struct {
		r     ratio
		value float64
		text  string
	}{
		{ratio{3, 4}, 0.75, "0.75 (3/4)"},
		{ratio{0, 1000}, 0, "0 (0/1000)"},
		{ratio{0, 0}, 0, "0 (0/0)"},
	} {
		if c.r.value() != c.value || c.r.String() != c.text {
			t.Errorf("%+v: value %v text %q, want %v %q", c.r, c.r.value(), c.r.String(), c.value, c.text)
		}
	}
}

func TestCountFailsTheRunOnAnyBadOp(t *testing.T) {
	good := sample{lat: 3 * time.Millisecond, gap: time.Millisecond, res: ok()}
	for _, c := range []struct {
		name       string
		windows    [][]sample
		thr        []finish
		bad        int
		errs, shed int
	}{
		{"clean", [][]sample{{good, good}}, []finish{{res: ok()}}, 0, 0, 0},
		{"latency-phase error", [][]sample{{good}, {{res: failed("boom")}}}, nil, 0, 1, 0},
		{"throughput-phase shed", [][]sample{{good}}, []finish{{res: result{out: opShed, err: errors.New("429")}}}, 0, 0, 1},
		{"failed end-of-run check", [][]sample{{good}}, nil, 1, 1, 0},
	} {
		tl := count(c.windows, c.thr, c.bad)
		if tl.errs != c.errs || tl.shed != c.shed || tl.correct() != (c.errs+c.shed == 0) {
			t.Errorf("%s: errs %d shed %d correct %v", c.name, tl.errs, tl.shed, tl.correct())
		}
		ops := len(c.thr)
		for _, w := range c.windows {
			ops += len(w)
		}
		if tl.attempted != ops {
			t.Errorf("%s: attempted %d, want %d", c.name, tl.attempted, ops)
		}
	}
	// Only successful latency-phase ops give latencies, kept per window;
	// every one gives its gap.
	tl := count([][]sample{{good, {lat: time.Second, res: failed("x")}}, {good}}, nil, 0)
	if len(tl.lats) != 2 || len(tl.lats[0]) != 1 || tl.lats[0][0] != 3 || len(tl.gaps) != 3 || tl.first == nil {
		t.Errorf("latencies %v, gaps %v, first failure %v", tl.lats, tl.gaps, tl.first)
	}
}

func TestWindowPercentileIsTheWindowMedian(t *testing.T) {
	scaled := func(f float64) []float64 {
		xs := seq(200)
		for i := range xs {
			xs[i] *= f
		}
		return xs
	}
	// Window p95s 190, 1900 (a slow stretch), 209, 171, 190.
	got, vals, err := windowPercentile([][]float64{scaled(1), scaled(10), scaled(1.1), scaled(0.9), scaled(1)}, 0.95)
	if err != nil || math.Abs(got-190) > 1e-9 || len(vals) != 5 {
		t.Errorf("median window p95 = %v (windows %v), %v; want 190", got, vals, err)
	}
	if _, _, err := windowPercentile([][]float64{seq(200), seq(199)}, 0.95); !errors.Is(err, errThinTail) {
		t.Errorf("a window with 9 samples above its p95: %v; want errThinTail", err)
	}
}

func TestThroughputIsTheWindowMedian(t *testing.T) {
	const period = 10
	var fs []finish
	at := time.Duration(0)
	// Five windows of 10 ops each, taking 250 ms, 5 s (a stall), 200 ms,
	// 250 ms and 125 ms; then 7 ops of an incomplete window.
	for _, d := range []time.Duration{250, 5000, 200, 250, 125} {
		for k := 0; k < period; k++ {
			at += d * time.Millisecond / period
			fs = append(fs, finish{res: ok(), at: at})
		}
	}
	for k := 0; k < 7; k++ {
		at += time.Millisecond
		fs = append(fs, finish{res: ok(), at: at})
	}
	got, rates := throughput(fs, period)
	if math.Abs(got-40) > 1e-6 || len(rates) != 5 || math.Abs(rates[1]-2) > 1e-6 {
		t.Errorf("throughput = %v, rates %v; want 40 (the median window) and rates [40 2 50 40 80]", got, rates)
	}
}

// TestHotelsSkipsPanickingSeeds pins a gen.Hotels seed that panics: the
// benchmark must replace it, deterministically, instead of crashing.
func TestHotelsSkipsPanickingSeeds(t *testing.T) {
	const rows, seed = 4241, 0x7dd50b7617b5e7b9
	if hotels(rows, seed) != nil {
		t.Skip("gen.Hotels no longer panics on this seed")
	}
	a, b := hotelsCSV(rows, seed), hotelsCSV(rows, seed)
	if a == "" || a != b {
		t.Errorf("hotelsCSV over a panicking seed: %d bytes, deterministic %v", len(a), a == b)
	}
}

// TestLatencyPhaseChargesStallsToTheirOp stalls one request of a fake
// handler: the latency phase sends one op at a time, so the stall is
// charged to that op in full and to no other, and the work done between
// windows is charged to none.
func TestLatencyPhaseChargesStallsToTheirOp(t *testing.T) {
	const (
		stall   = 300 * time.Millisecond
		period  = 4
		stalled = 5 // index of the op whose request stalls
	)
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		if n.Add(1) == stalled+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	var after []int
	windows := latencyPhase(period, 100, 0, func(int) result {
		status, body, err := c.do("GET", "/", nil)
		return classify(status, body, err)
	}, func(k int) {
		after = append(after, k)
		time.Sleep(stall)
	})
	if len(windows) != minWindows || len(after) != minWindows {
		t.Fatalf("%d windows, after called for %v; want %d of each (d = 0)", len(windows), after, minWindows)
	}
	for k, win := range windows {
		for j, s := range win {
			i := k*period + j
			if s.res.out != opOK {
				t.Fatalf("op %d: %v", i, s.res.err)
			}
			if i == stalled && s.lat < stall {
				t.Errorf("stalled op %d latency %v, want >= %v", i, s.lat, stall)
			}
			if i != stalled && (s.lat > stall/2 || s.gap > stall/2) {
				t.Errorf("op %d latency %v gap %v: charged another op's stall or the time between windows", i, s.lat, s.gap)
			}
		}
	}
}

// TestThroughputPhaseTakesWholeWindows checks the phase takes at least
// minWindows windows of ops even after its time is up, and stops at the
// limit of the generated inputs.
func TestThroughputPhaseTakesWholeWindows(t *testing.T) {
	var max atomic.Int64
	do := func(i int) result {
		for {
			m := max.Load()
			if int64(i) <= m || max.CompareAndSwap(m, int64(i)) {
				break
			}
		}
		return ok()
	}
	if fs := throughputPhase(2, 10, 0, 100, 1000, do); len(fs) != minWindows*10 || max.Load() != 100+minWindows*10-1 {
		t.Errorf("d = 0: %d ops up to %d, want %d up to %d", len(fs), max.Load(), minWindows*10, 100+minWindows*10-1)
	}
	if fs := throughputPhase(2, 10, time.Hour, 0, 55, do); len(fs) != 55 {
		t.Errorf("limit 55: %d ops", len(fs))
	}
}

// TestStreamAppendRunsClean keeps the stream-append workload checked
// while BENCHMARK.json leaves it out: a short run on small bases boots
// over the earlier instance's stream WAL, sends the drift batch, and must
// pass every output check.
func TestStreamAppendRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload for several seconds")
	}
	spec := workloads["stream-append"]
	spec.build = func(rng *rand.Rand, h hash.Hash, ops int) workload {
		return newStreamAppend(rng, h, ops, 5000)
	}
	rep, err := measure("stream-append", spec, 1, 8*time.Second, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < streamDriftAt*len(streamAlgos) {
		t.Fatalf("report %+v: want a correct run past the drift batch", rep)
	}
}

func TestCorruptedExpectationFailsTheOp(t *testing.T) {
	w := &syncMix{pool: genSyncReqs(rand.New(rand.NewSource(1)), 1, sha256.New())}
	if err := w.prepare(""); err != nil {
		t.Fatal(err)
	}
	in, _, err := boot("")
	if err != nil {
		t.Fatal(err)
	}
	defer in.stop()
	c := newClient(in.url, 1)
	defer c.close()
	for i := range w.pool {
		if r := w.do(c, i); r.out != opOK {
			t.Fatalf("op %d (%s): %v", i, w.req(i).kind, r.err)
		}
	}
	want := append([]byte(nil), w.pool[0].want...)
	want[len(want)/2] ^= 1
	w.pool[0].want = want
	r := w.do(c, 0)
	if r.out != opErr || !strings.Contains(r.err.Error(), "differs") {
		t.Fatalf("op against a corrupted expectation: %v %v; want a failed output check", r.out, r.err)
	}
	if count([][]sample{{{res: r}}}, nil, 0).correct() {
		t.Error("a failed output check left the run correct")
	}
}
