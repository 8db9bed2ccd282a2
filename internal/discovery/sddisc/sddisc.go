// Package sddisc implements sequential-dependency discovery (paper §4.4.3)
// and the CSD tableau construction (§4.4.5) after Golab et al. [48].
//
// SD discovery fits a gap interval to the consecutive deltas of an ordered
// relation so that the SD reaches a target confidence. CSD tableau
// construction is the polynomial-time highlight of the paper's Fig 3: an
// exact dynamic program, quadratic in the number of candidate intervals,
// that selects disjoint X-spans ("good" intervals, where the embedded SD
// holds with confidence ≥ c) maximizing total coverage.
package sddisc

import (
	"context"
	"sort"

	"deptree/internal/deps/sd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures SD discovery.
type Options struct {
	// MinConfidence is the confidence an SD must reach to be reported,
	// and the confidence FitInterval targets (default 0.9).
	MinConfidence float64
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

// Result is an SD discovery outcome.
type Result struct {
	SDs []sd.SD
	engine.Stop
	// Completed is the number of (X, Y) candidate pairs fitted.
	Completed int
}

// batch is the fixed MapBudget stripe width over candidate pairs; each
// task is a sort plus an O(n²) confidence DP. Fixed so the truncation
// point is worker-independent.
const batch = 4

// DiscoverContext fits gap intervals over every ordered pair of distinct
// numeric columns (X orders, Y measures) and reports the SDs whose fitted
// interval reaches MinConfidence — the single-attribute-X instantiation
// of Golab et al.'s discovery problem, with the interval chosen by
// FitInterval's central-quantile heuristic. It runs under a context and
// Options.Budget.
//
// The output is approximate, not exact: an SD is emitted once its
// Confidence reaches MinConfidence, and the rendered X ->_[g] Y does
// not carry that confidence, so an emitted SD need not satisfy
// sd.SD.Holds — on dirty data most do not (DESIGN.md §5).
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	if opts.MinConfidence == 0 {
		opts.MinConfidence = 0.9
	}
	var numeric []int
	for c := 0; c < r.Cols(); c++ {
		if k := r.Schema().Attr(c).Kind; k == relation.KindInt || k == relation.KindFloat {
			numeric = append(numeric, c)
		}
	}
	type pair struct{ x, y int }
	var pairs []pair
	for _, x := range numeric {
		for _, y := range numeric {
			if x != y {
				pairs = append(pairs, pair{x, y})
			}
		}
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "sddisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("candidates", len(pairs))
	defer run.End()

	type hit struct {
		s  sd.SD
		ok bool
	}
	fitSpan := run.Child(obs.KindPhase, "interval-fit")
	hits, done, err := engine.MapBudget(pool, len(pairs), batch, func(i int) hit {
		p := pairs[i]
		g := FitInterval(r, []int{p.x}, p.y, opts.MinConfidence)
		s := sd.SD{X: []int{p.x}, Y: p.y, G: g, Schema: r.Schema()}
		if s.Confidence(r) < opts.MinConfidence {
			return hit{}
		}
		return hit{s: s, ok: true}
	})
	fitSpan.SetAttr("completed", done)
	fitSpan.End()
	reg.Counter("sddisc.pairs.fitted").Add(int64(done))

	var out []sd.SD
	for i := 0; i < done; i++ {
		if hits[i].ok {
			out = append(out, hits[i].s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X[0] != out[j].X[0] {
			return out[i].X[0] < out[j].X[0]
		}
		return out[i].Y < out[j].Y
	})
	reg.Counter("sddisc.sds.valid").Add(int64(len(out)))
	return Result{SDs: out, Completed: done, Stop: engine.StopAt(run, err)}
}

// FitInterval returns the tightest gap interval g containing at least
// confidence·(n−1) of the consecutive Y-deltas when tuples are ordered by
// X: the interval spanning the delta distribution's central quantiles.
func FitInterval(r *relation.Relation, x []int, y int, confidence float64) sd.Interval {
	idx := r.SortedIndex(x)
	if len(idx) < 2 {
		return sd.Interval{}
	}
	deltas := make([]float64, 0, len(idx)-1)
	for k := 1; k < len(idx); k++ {
		deltas = append(deltas, r.Value(idx[k], y).Num()-r.Value(idx[k-1], y).Num())
	}
	sort.Float64s(deltas)
	if confidence >= 1 {
		return sd.Interval{Lo: deltas[0], Hi: deltas[len(deltas)-1]}
	}
	// Drop (1−confidence)/2 mass from each tail.
	drop := int(float64(len(deltas)) * (1 - confidence) / 2)
	lo, hi := drop, len(deltas)-1-drop
	if lo > hi {
		lo, hi = 0, len(deltas)-1
	}
	return sd.Interval{Lo: deltas[lo], Hi: deltas[hi]}
}

// Candidate is one candidate tableau span with its quality.
type Candidate struct {
	Span sd.Span
	// Confidence of the embedded SD restricted to the span.
	Confidence float64
	// Size is the number of tuples covered.
	Size int
}

// TableauDP constructs a CSD tableau for the embedded SD: from the sorted
// distinct X values it forms the O(k²) candidate intervals between
// breakpoints, marks those where the SD holds with confidence ≥ minConf
// ("good" intervals), and selects a disjoint subset maximizing tuple
// coverage by exact dynamic programming — quadratic in the number of
// candidate intervals, the polynomial-time discovery case of Fig 3.
func TableauDP(r *relation.Relation, s sd.SD, minConf float64, maxBreakpoints int) []sd.Span {
	idx := r.SortedIndex(s.X)
	n := len(idx)
	if n < 2 {
		return nil
	}
	// Breakpoints: distinct X values (downsampled to maxBreakpoints).
	var xs []float64
	last := 0.0
	for k, row := range idx {
		v := r.Value(row, s.X[0]).Num()
		if k == 0 || v != last {
			xs = append(xs, v)
			last = v
		}
	}
	if maxBreakpoints > 1 && len(xs) > maxBreakpoints {
		step := float64(len(xs)-1) / float64(maxBreakpoints-1)
		var ds []float64
		for i := 0; i < maxBreakpoints; i++ {
			ds = append(ds, xs[int(float64(i)*step+0.5)])
		}
		xs = ds
	}
	// Pre-extract the X-sorted (x, y) series once; each candidate interval
	// is then a contiguous slice of it, and confidence is computed directly
	// on the y-slice.
	sortedX := make([]float64, n)
	sortedY := make([]float64, n)
	for k, row := range idx {
		sortedX[k] = r.Value(row, s.X[0]).Num()
		sortedY[k] = r.Value(row, s.Y).Num()
	}
	lowerBound := func(v float64) int {
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if sortedX[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	upperBound := func(v float64) int {
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if sortedX[mid] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Candidate intervals [xs[i], xs[j]]: evaluate confidence of the
	// restricted SD on the contiguous row slice.
	type cand struct {
		i, j int
		size int
	}
	var good []cand
	for i := 0; i < len(xs); i++ {
		for j := i; j < len(xs); j++ {
			lo, hi := lowerBound(xs[i]), upperBound(xs[j])
			size := hi - lo
			if size < 2 {
				continue
			}
			if confidenceSlice(sortedY[lo:hi], s.G) >= minConf {
				good = append(good, cand{i: i, j: j, size: size})
			}
		}
	}
	if len(good) == 0 {
		return nil
	}
	// Weighted interval scheduling DP over disjoint candidates: order by
	// right endpoint; best[k] = max coverage using candidates[0..k].
	sort.Slice(good, func(a, b int) bool {
		if good[a].j != good[b].j {
			return good[a].j < good[b].j
		}
		return good[a].i < good[b].i
	})
	best := make([]int, len(good)+1)
	choose := make([]bool, len(good))
	prev := make([]int, len(good))
	for k, c := range good {
		// Latest candidate ending before c starts.
		p := 0
		for q := k - 1; q >= 0; q-- {
			if good[q].j < c.i {
				p = q + 1
				break
			}
		}
		prev[k] = p
		with := best[p] + c.size
		without := best[k]
		if with > without {
			best[k+1] = with
			choose[k] = true
		} else {
			best[k+1] = without
		}
	}
	// Backtrack.
	var spans []sd.Span
	for k := len(good) - 1; k >= 0; {
		if choose[k] {
			spans = append(spans, sd.Span{Lo: xs[good[k].i], Hi: xs[good[k].j]})
			k = prev[k] - 1
		} else {
			k--
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].Lo < spans[b].Lo })
	return spans
}

// confidenceSlice mirrors sd.SD.Confidence on a pre-sorted Y slice: the
// longest insertion-repairable chain over the gap interval, divided by the
// slice length.
func confidenceSlice(ys []float64, g sd.Interval) float64 {
	n := len(ys)
	if n == 0 {
		return 1
	}
	best := make([]int, n)
	overall := 0
	for i := 0; i < n; i++ {
		best[i] = 1
		for j := 0; j < i; j++ {
			if g.Reachable(ys[i]-ys[j]) && best[j]+1 > best[i] {
				best[i] = best[j] + 1
			}
		}
		if best[i] > overall {
			overall = best[i]
		}
	}
	return float64(overall) / float64(n)
}
