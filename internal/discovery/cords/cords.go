// Package cords implements the CORDS approach of Ilyas et al. [55] (paper
// §2.1.3) for discovering soft functional dependencies and correlations
// between column pairs: sample the relation, estimate per-column and
// pairwise distinct counts from the sample (the role the system catalog
// plays in the original), compute the SFD strength, and run a robust
// chi-square analysis on the contingency table of frequent values to flag
// correlated columns.
package cords

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps/sfd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures a CORDS run.
type Options struct {
	// SampleSize bounds the number of rows examined (0 = whole relation).
	// CORDS' point is that the sample size needed is essentially
	// independent of |r|.
	SampleSize int
	// MinStrength is the SFD strength threshold s (default 0.95).
	MinStrength float64
	// ChiSquareLevel is the significance threshold for the correlation
	// statistic; the default 0.01 flags pairs whose chi-square exceeds the
	// critical value for the contingency table's degrees of freedom.
	ChiSquareLevel float64
	// MaxCategories caps the contingency-table dimensions (frequent-value
	// bucketing, as in the original; default 20).
	MaxCategories int
	// Seed drives sampling.
	Seed int64
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MinStrength == 0 {
		o.MinStrength = 0.95
	}
	if o.MaxCategories == 0 {
		o.MaxCategories = 20
	}
	if o.ChiSquareLevel == 0 {
		o.ChiSquareLevel = 0.01
	}
	return o
}

// Correlation is a flagged column pair with its statistics.
type Correlation struct {
	// Col1, Col2 are the column indices (Col1 determines Col2 for the SFD
	// reading).
	Col1, Col2 int
	// Strength is the SFD strength measure on the sample.
	Strength float64
	// ChiSquare is the correlation statistic on the bucketed contingency
	// table.
	ChiSquare float64
	// Correlated marks pairs whose chi-square analysis rejects
	// independence.
	Correlated bool
}

// Result bundles discovered SFDs and flagged correlations. A Partial
// result covers a deterministic prefix of the column pairs (fixed
// enumeration order, fixed fan-out batches), so any two budget-truncated
// runs of the same input agree regardless of worker count.
type Result struct {
	SFDs         []sfd.SFD
	Correlations []Correlation
	// Partial marks a run truncated by budget, cancellation or panic.
	Partial bool
	// Reason is the stable stop token ("deadline", "max-tasks", ...).
	Reason string
	// Completed is the number of ordered column pairs analyzed.
	Completed int
}

// DiscoverContext runs CORDS over all column pairs under a context and
// Options.Budget.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	sample := sampleRows(r, opts.SampleSize, opts.Seed)
	n := r.Cols()
	type pair struct{ c1, c2 int }
	pairs := make([]pair, 0, n*(n-1))
	for c1 := 0; c1 < n; c1++ {
		for c2 := 0; c2 < n; c2++ {
			if c1 != c2 {
				pairs = append(pairs, pair{c1, c2})
			}
		}
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "cords")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("sample", len(sample))
	run.SetAttr("pairs", len(pairs))
	defer run.End()

	// Encode every column and compute its sample statistics once up front:
	// each pair analysis then only counts code pairs and fills its
	// contingency table.
	cols := make([]colStats, n)
	for c := 0; c < n; c++ {
		cols[c] = columnStats(r, c, sample, opts.MaxCategories)
	}

	pairSpan := run.Child(obs.KindPhase, "pair-analysis")
	pairTimer := reg.Histogram("cords.pairs.seconds").Start()
	corrs, done, err := engine.MapBudget(pool, len(pairs), 0, func(i int) Correlation {
		return analyze(sample, &cols[pairs[i].c1], &cols[pairs[i].c2], pairs[i].c1, pairs[i].c2, opts)
	})
	pairTimer()
	pairSpan.SetAttr("completed", done)
	pairSpan.End()
	reg.Counter("cords.pairs.analyzed").Add(int64(done))
	res := Result{Completed: done}
	if err != nil {
		res.Partial = true
		res.Reason = engine.Reason(err)
		run.SetAttr("stop", res.Reason)
	}
	for _, corr := range corrs {
		res.Correlations = append(res.Correlations, corr)
		if corr.Correlated {
			reg.Counter("cords.pairs.correlated").Inc()
		}
		if corr.Strength >= opts.MinStrength {
			res.SFDs = append(res.SFDs, sfd.SFD{
				LHS:         attrset.Single(corr.Col1),
				RHS:         attrset.Single(corr.Col2),
				MinStrength: opts.MinStrength,
				Schema:      r.Schema(),
			})
		}
	}
	reg.Counter("cords.sfds.found").Add(int64(len(res.SFDs)))
	return res
}

// sampleRows draws a uniform sample of row indices without replacement.
func sampleRows(r *relation.Relation, size int, seed int64) []int {
	n := r.Rows()
	if size <= 0 || size >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)[:size]
	sort.Ints(perm)
	return perm
}

// colStats is one dictionary-encoded column with its sample statistics:
// per-row codes and the code cardinality, the number of distinct codes in
// the sample, the sample rows grouped by code (CSR: the rows of code k are
// rows[offsets[k]:offsets[k+1]], in sample order), and the frequent-value
// buckets (top codes and their code → bucket index).
type colStats struct {
	codes    []int
	card     int
	distinct int
	offsets  []int32
	rows     []int32
	top      []int
	idx      []int
}

// columnStats encodes column c and computes its statistics over sample.
// Frequent-value ties break on each code's Value.Key() string.
func columnStats(r *relation.Relation, c int, sample []int, maxCategories int) colStats {
	codes, card := r.Codes(c)
	keys := make([]string, card)
	seen := make([]bool, card)
	for row, code := range codes {
		if !seen[code] {
			seen[code] = true
			keys[code] = r.Value(row, c).Key()
		}
	}
	cnt := make([]int, card)
	for _, row := range sample {
		cnt[codes[row]]++
	}
	s := colStats{codes: codes, card: card, offsets: make([]int32, card+1), rows: make([]int32, len(sample))}
	for k, n := range cnt {
		if n > 0 {
			s.distinct++
		}
		s.offsets[k+1] = s.offsets[k] + int32(n)
	}
	next := append([]int32(nil), s.offsets[:card]...)
	for _, row := range sample {
		k := codes[row]
		s.rows[next[k]] = int32(row)
		next[k]++
	}
	s.top = topCodes(cnt, keys, maxCategories)
	s.idx = index(s.top, card)
	return s
}

// analyze computes strength and the chi-square statistic for one ordered
// column pair over the sample, entirely on integer codes. The pairwise
// distinct count walks column 1's code classes and marks column 2's codes
// in a stamp array (one stamp per class, so no reset between classes);
// the contingency cells are array-indexed.
func analyze(sample []int, d1, d2 *colStats, c1, c2 int, opts Options) Correlation {
	stamp := make([]int32, d2.card)
	pairDistinct := 0
	for k := 0; k < d1.card; k++ {
		for _, row := range d1.rows[d1.offsets[k]:d1.offsets[k+1]] {
			if k2 := d2.codes[row]; stamp[k2] != int32(k)+1 {
				stamp[k2] = int32(k) + 1
				pairDistinct++
			}
		}
	}
	corr := Correlation{Col1: c1, Col2: c2}
	if pairDistinct > 0 {
		corr.Strength = float64(d1.distinct) / float64(pairDistinct)
	} else {
		corr.Strength = 1
	}
	// Bucket to the MaxCategories most frequent values per column.
	rows, cols := len(d1.top), len(d2.top)
	if rows < 2 || cols < 2 {
		// A constant column is trivially dependent; chi-square undefined.
		corr.Correlated = corr.Strength >= opts.MinStrength
		return corr
	}
	table := make([][]float64, rows)
	for i := range table {
		table[i] = make([]float64, cols)
	}
	total := 0.0
	for _, row := range sample {
		i := d1.idx[d1.codes[row]]
		j := d2.idx[d2.codes[row]]
		if i >= 0 && j >= 0 {
			table[i][j]++
			total++
		}
	}
	if total == 0 {
		return corr
	}
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	for i := range table {
		for j := range table[i] {
			rowSum[i] += table[i][j]
			colSum[j] += table[i][j]
		}
	}
	chi := 0.0
	for i := range table {
		for j := range table[i] {
			expected := rowSum[i] * colSum[j] / total
			if expected > 0 {
				d := table[i][j] - expected
				chi += d * d / expected
			}
		}
	}
	corr.ChiSquare = chi
	dof := float64((rows - 1) * (cols - 1))
	// Normal approximation to the chi-square critical value at the 0.01
	// level: χ² > dof + 2.33·sqrt(2·dof) (Wilson–Hilferty would be finer;
	// CORDS itself uses a robust cutoff, not an exact test).
	critical := dof + 2.33*math.Sqrt(2*dof)
	corr.Correlated = chi > critical
	return corr
}

// topCodes returns the up-to-k codes with the highest sample counts,
// ordered by count descending then key ascending — the same total order
// the string-keyed implementation used, since keys are distinct per code.
func topCodes(cnt []int, keys []string, k int) []int {
	codes := make([]int, 0, len(cnt))
	for c, n := range cnt {
		if n > 0 {
			codes = append(codes, c)
		}
	}
	sort.Slice(codes, func(i, j int) bool {
		if cnt[codes[i]] != cnt[codes[j]] {
			return cnt[codes[i]] > cnt[codes[j]]
		}
		return keys[codes[i]] < keys[codes[j]]
	})
	if len(codes) > k {
		codes = codes[:k]
	}
	return codes
}

// index maps code → contingency-table index for the top codes, −1
// elsewhere.
func index(top []int, card int) []int {
	out := make([]int, card)
	for i := range out {
		out[i] = -1
	}
	for i, c := range top {
		out[c] = i
	}
	return out
}
