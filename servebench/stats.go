package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie strictly above a reported
// percentile: a p95 resting on fewer is one noisy neighbour away from a
// different number, so the benchmark refuses to print it.
const minTail = 10

// errThinTail is returned when a percentile has fewer than minTail
// samples above it.
var errThinTail = errors.New("too few samples above the percentile")

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, after checking that at least minTail samples lie
// strictly above it. The median (q = 0.5) is exempt from the tail rule
// only in the sense that any run long enough for p95 satisfies it.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("percentile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	v := s[rank]
	above := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	if above < minTail {
		return v, fmt.Errorf("p%g of %d samples: %d above, want >= %d: %w",
			q*100, len(s), above, minTail, errThinTail)
	}
	return v, nil
}

// median is the middle value of xs (mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a share printed with its base, so a reader can tell 0/0 from
// 0/1000.
type ratio struct {
	num, den float64
}

// value is num/den, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%g/%g)", r.value(), r.num, r.den)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts one run's outcomes over both phases.
type tally struct {
	lats         [][]float64 // ms, successful latency-phase ops, per window
	gaps         []float64   // ms, generator time before every latency-phase op
	okLat, okThr int
	shed, errs   int
	attempted    int
	first        error // the first failure's detail
}

// count tallies the latency-phase windows and the throughput-phase
// results; bad adds the failed end-of-run output checks to the errors.
func count(windows [][]sample, thr []finish, bad int) tally {
	t := tally{attempted: len(thr), errs: bad}
	succeeded := func(r result) bool {
		if t.first == nil {
			t.first = r.err
		}
		switch r.out {
		case opOK:
			return true
		case opShed:
			t.shed++
		default:
			t.errs++
		}
		return false
	}
	for _, win := range windows {
		var lats []float64
		for _, s := range win {
			t.attempted++
			t.gaps = append(t.gaps, ms(s.gap))
			if succeeded(s.res) {
				t.okLat++
				lats = append(lats, ms(s.lat))
			}
		}
		t.lats = append(t.lats, lats)
	}
	for _, f := range thr {
		if succeeded(f.res) {
			t.okThr++
		}
	}
	return t
}

// correct reports whether every op succeeded and every check held.
func (t tally) correct() bool { return t.errs == 0 && t.shed == 0 }

// windowPercentile returns the median over the windows of each window's
// q-quantile, with the per-window values. Every window's quantile must
// pass the tail rule.
func windowPercentile(windows [][]float64, q float64) (float64, []float64, error) {
	vals := make([]float64, len(windows))
	for k, lats := range windows {
		v, err := percentile(lats, q)
		if err != nil {
			return 0, nil, fmt.Errorf("window %d: %w", k, err)
		}
		vals[k] = v
	}
	if len(vals) == 0 {
		return 0, nil, errors.New("no windows")
	}
	return median(vals), vals, nil
}
