// Package cfddisc implements CFD discovery (paper §2.5.3): CFDMiner-style
// mining of minimal constant CFDs [35],[36], and the greedy near-optimal
// tableau construction of Golab et al. [49] for a given embedded FD.
// Generating an optimal tableau is NP-complete [49]; the greedy algorithm
// trades optimality for a logarithmic approximation, which the benchmarks
// exercise.
package cfddisc

import (
	"context"
	"encoding/binary"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps/cfd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures constant-CFD mining.
type Options struct {
	// MinSupport is the minimum number of tuples a pattern must match
	// (default 2).
	MinSupport int
	// MaxLHS bounds the number of constant attributes in a pattern
	// (default 3).
	MaxLHS int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
	if o.MaxLHS == 0 {
		o.MaxLHS = 3
	}
	return o
}

// item is one (column, value) constant of a pattern; the value is the
// column's dictionary code.
type item struct {
	col, code int
}

// pattern is a sorted constant itemset.
type pattern []item

func (p pattern) cols() attrset.Set {
	var s attrset.Set
	for _, it := range p {
		s = s.Add(it.col)
	}
	return s
}

// id is the pattern's fixed-width byte form (column and code, 4 bytes
// each per item), so distinct patterns never share an id.
func (p pattern) id() string {
	b := make([]byte, 0, 8*len(p))
	for _, it := range p {
		b = binary.LittleEndian.AppendUint32(b, uint32(it.col))
		b = binary.LittleEndian.AppendUint32(b, uint32(it.code))
	}
	return string(b)
}

// Result is a constant-CFD mining outcome; a Partial run covers a
// deterministic prefix of the level-wise pattern enumeration.
type Result struct {
	CFDs []cfd.CFD
	// Partial marks a run truncated by budget, cancellation or panic.
	Partial bool
	// Reason is the stable stop token; empty when complete.
	Reason string
	// Completed is the number of pattern nodes whose conclusions were
	// checked.
	Completed int
}

// batch is the fixed MapBudget stripe width over pattern nodes. Fixed so
// the truncation point is worker-independent.
const batch = 8

// DiscoverContext mines minimal constant CFDs (X = t_p → A = a): patterns
// of constants whose matching tuples all share one A value, with support ≥
// MinSupport, and no sub-pattern already implying the same conclusion.
//
// It runs under a context and Options.Budget. Within one level the
// per-node conclusion scans are independent and fan out; the minimality
// bookkeeping then replays the completed node prefix in the sequential
// order, so results are byte-identical to the sequential miner at any
// worker count. Growing the next level stays sequential (it needs the full
// current level).
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	n := r.Cols()
	if n == 0 || r.Rows() == 0 {
		return Result{}
	}
	// rowsOf maps a pattern id to its matching rows; level-wise growth.
	type node struct {
		pat  pattern
		rows []int
	}
	// Level 1: the supported single items, per column in Value.Key order.
	codes := make([][]int, n)
	var level []node
	for c := 0; c < n; c++ {
		var card int
		codes[c], card = r.Codes(c)
		groups := make([][]int, card)
		for row, code := range codes[c] {
			groups[code] = append(groups[code], row)
		}
		keys := make([]string, card)
		var frequent []int
		for code, rows := range groups {
			if len(rows) >= opts.MinSupport {
				keys[code] = r.Value(rows[0], c).Key()
				frequent = append(frequent, code)
			}
		}
		sort.Slice(frequent, func(i, j int) bool { return keys[frequent[i]] < keys[frequent[j]] })
		for _, code := range frequent {
			level = append(level, node{pat: pattern{{col: c, code: code}}, rows: groups[code]})
		}
	}
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "cfddisc")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("level-1", len(level))
	defer run.End()
	mineSpan := run.Child(obs.KindPhase, "pattern-mining")

	// impliedBy records conclusions already derived from some
	// sub-pattern: from conclusion (col, code) to the patterns.
	impliedBy := map[item][]pattern{}
	var results []cfd.CFD
	addResult := func(p pattern, col int, rows []int) {
		// Minimality: some sub-pattern already implies this conclusion?
		concl := item{col: col, code: codes[col][rows[0]]}
		for _, prev := range impliedBy[concl] {
			if subPattern(prev, p) {
				return
			}
		}
		impliedBy[concl] = append(impliedBy[concl], p)
		// Assemble the CFD: X constants → A = a.
		x := make([]string, len(p))
		cells := make([]cfd.Cell, 0, len(p)+1)
		for i, it := range p {
			x[i] = r.Schema().Attr(it.col).Name
			cells = append(cells, cfd.Const(r.Value(rows[0], it.col)))
		}
		y := []string{r.Schema().Attr(col).Name}
		cells = append(cells, cfd.Const(r.Value(rows[0], col)))
		c, err := cfd.New(r.Schema(), x, y, cells)
		if err != nil {
			panic(err) // constructed from schema: cannot fail
		}
		results = append(results, c)
	}
	completed := 0
	var stopErr error
	for depth := 1; depth <= opts.MaxLHS && len(level) > 0; depth++ {
		// Fan out: each node independently finds its conclusion columns
		// (ascending), the order the sequential miner visits them in.
		concl, done, err := engine.MapBudget(pool, len(level), batch, func(i int) []int {
			nd := level[i]
			cols := nd.pat.cols()
			var out []int
			for a := 0; a < n; a++ {
				if cols.Has(a) {
					continue
				}
				ca := codes[a]
				k0 := ca[nd.rows[0]]
				same := true
				for _, row := range nd.rows[1:] {
					if ca[row] != k0 {
						same = false
						break
					}
				}
				if same {
					out = append(out, a)
				}
			}
			return out
		})
		completed += done
		// Replay the completed prefix sequentially for minimality.
		for i := 0; i < done; i++ {
			for _, a := range concl[i] {
				addResult(level[i].pat, a, level[i].rows)
			}
		}
		if err != nil {
			stopErr = err
			break
		}
		// Grow: combine nodes sharing all but one item.
		seen := map[string]bool{}
		var next []node
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				merged, ok := mergePatterns(level[i].pat, level[j].pat)
				if !ok || seen[merged.id()] {
					continue
				}
				seen[merged.id()] = true
				rows := intersectSorted(level[i].rows, level[j].rows)
				if len(rows) >= opts.MinSupport {
					next = append(next, node{pat: merged, rows: rows})
				}
			}
		}
		level = next
	}
	mineSpan.SetAttr("completed", completed)
	mineSpan.End()
	reg.Counter("cfddisc.nodes.checked").Add(int64(completed))
	reg.Counter("cfddisc.cfds.valid").Add(int64(len(results)))
	res := Result{CFDs: results, Completed: completed}
	if stopErr != nil {
		res.Partial = true
		res.Reason = engine.Reason(stopErr)
		run.SetAttr("stop", res.Reason)
	}
	return res
}

// subPattern reports whether a ⊆ b as item sets.
func subPattern(a, b pattern) bool {
	i := 0
	for _, it := range b {
		if i < len(a) && a[i] == it {
			i++
		}
	}
	return i == len(a)
}

// mergePatterns unions two same-size patterns differing in exactly one
// item, producing a size+1 pattern; ok is false otherwise or when the
// union binds one column twice.
func mergePatterns(a, b pattern) (pattern, bool) {
	merged := append(pattern{}, a...)
	added := 0
	for _, it := range b {
		if !containsItem(merged, it) {
			merged = append(merged, it)
			added++
		}
	}
	if added != 1 {
		return nil, false
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].col != merged[j].col {
			return merged[i].col < merged[j].col
		}
		return merged[i].code < merged[j].code
	})
	// One column, one constant.
	for i := 1; i < len(merged); i++ {
		if merged[i].col == merged[i-1].col {
			return nil, false
		}
	}
	return merged, true
}

func containsItem(p pattern, it item) bool {
	for _, x := range p {
		if x == it {
			return true
		}
	}
	return false
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// GreedyTableau builds a near-optimal pattern tableau for the embedded FD
// X → A following Golab et al. [49]: candidate patterns are the distinct
// X-values (as constant rows) plus the all-wildcard row; a pattern is
// admissible when the FD holds with confidence ≥ minConf on its matching
// tuples; patterns are picked greedily by marginal tuple coverage until
// coverage ≥ minCover of the admissible tuples.
func GreedyTableau(r *relation.Relation, x []int, a int, minConf, minCover float64) []cfd.CFD {
	if r.Rows() == 0 {
		return nil
	}
	xCodes, xCard := r.GroupCodes(x)
	aCodes, _ := r.Codes(a)
	groups := make([][]int, xCard)
	for row, g := range xCodes {
		groups[g] = append(groups[g], row)
	}
	// Admissible groups: confidence = majority fraction ≥ minConf.
	type candidate struct {
		rows []int
		conf float64
	}
	var cands []candidate
	admissibleTotal := 0
	for _, rows := range groups {
		counts := map[int]int{}
		best := 0
		for _, row := range rows {
			counts[aCodes[row]]++
			if counts[aCodes[row]] > best {
				best = counts[aCodes[row]]
			}
		}
		conf := float64(best) / float64(len(rows))
		if conf >= minConf {
			cands = append(cands, candidate{rows: rows, conf: conf})
			admissibleTotal += len(rows)
		}
	}
	if admissibleTotal == 0 {
		return nil
	}
	// Greedy selection by coverage.
	sort.Slice(cands, func(i, j int) bool {
		if len(cands[i].rows) != len(cands[j].rows) {
			return len(cands[i].rows) > len(cands[j].rows)
		}
		return cands[i].rows[0] < cands[j].rows[0]
	})
	covered := 0
	var out []cfd.CFD
	xNames := make([]string, len(x))
	for i, c := range x {
		xNames[i] = r.Schema().Attr(c).Name
	}
	aName := r.Schema().Attr(a).Name
	for _, cand := range cands {
		if float64(covered) >= minCover*float64(admissibleTotal) {
			break
		}
		cells := make([]cfd.Cell, 0, len(x)+1)
		for _, c := range x {
			cells = append(cells, cfd.Const(r.Value(cand.rows[0], c)))
		}
		cells = append(cells, cfd.Wildcard())
		c, err := cfd.New(r.Schema(), xNames, []string{aName}, cells)
		if err != nil {
			panic(err)
		}
		out = append(out, c)
		covered += len(cand.rows)
	}
	return out
}
