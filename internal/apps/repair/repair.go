// Package repair implements data repairing (paper Table 3): computing a
// modified instance that satisfies a given set of dependencies, changing
// as little as possible.
//
// Three repair engines are provided, matching the paper's per-class
// citations:
//
//   - FDs/CFDs: equivalence-class repair in the style of Bohannon et al.
//     [12] and Cong et al. [25] — group conflicting tuples, overwrite the
//     dependent attribute with the group majority.
//   - DCs: holistic repair after Chu et al. [20] — build a conflict
//     hypergraph from violations, repeatedly fix the cell that appears in
//     the most conflicts.
//   - Numerical DCs: bounded adjustment after Bertossi et al. [8],[9] and
//     Lopatenko & Bravo [70] — nudge numeric cells to the nearest value
//     satisfying the violated comparison.
//
// Exact minimal repairs are NP-hard for every class involved (§2.5.4), so
// all engines are heuristic, as in the literature.
package repair

import (
	"context"
	"fmt"

	"deptree/internal/deps"
	"deptree/internal/deps/dc"
	"deptree/internal/deps/fd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// Change records one cell modification.
type Change struct {
	Row, Col int
	Old, New relation.Value
}

// String renders the change.
func (c Change) String() string {
	return fmt.Sprintf("t%d.%d: %v -> %v", c.Row+1, c.Col, c.Old, c.New)
}

// Result is a repaired instance plus the applied changes.
type Result struct {
	Repaired *relation.Relation
	Changes  []Change
	// Stop is how the run ended. A Partial run's Repaired instance
	// reflects the changes applied so far (a valid relation, but the
	// dependencies may still be violated).
	engine.Stop
}

// Options configures the budgeted repair entry points.
type Options struct {
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

// FDRepair repairs FD violations by majority vote within each LHS
// equivalence class: for every group of tuples agreeing on X but not on Y,
// the Y cells are overwritten with the group's most frequent Y values.
// The result provably satisfies the given FDs (each class ends uniform).
func FDRepair(r *relation.Relation, fds []fd.FD) Result {
	return FDRepairContext(context.Background(), r, fds, Options{})
}

// FDRepairContext is FDRepair under a context and Options.Budget: within
// each FD the per-class majority computations fan out across
// Options.Workers goroutines (classes partition the rows, so the reads
// are disjoint), and the resulting changes apply serially in class order.
// Budget exhaustion stops the fixpoint mid-pass; the Result then carries
// the changes applied so far and reports Partial.
func FDRepairContext(ctx context.Context, r *relation.Relation, fds []fd.FD, opts Options) Result {
	out := r.Clone()
	var changes []Change
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "repair.fd")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("fds", len(fds))
	defer run.End()

	finish := func(err error) Result {
		reg.Counter("repair.cells.changed").Add(int64(len(changes)))
		run.SetAttr("changes", len(changes))
		return Result{Repaired: out, Changes: changes, Stop: engine.StopAt(run, err)}
	}
	// Iterate to a fixpoint: repairing one FD can break another.
	passes := 0
	for pass := 0; pass < len(fds)+1; pass++ {
		passes++
		dirty := false
		for _, f := range fds {
			px := partition.Build(out, f.LHS)
			ys := f.RHS.Cols()
			codes := make([][]int, len(ys))
			for k, y := range ys {
				codes[k], _ = out.Codes(y)
			}
			perClass, err := engine.MapErr(pool, px.NumClasses(), func(i int) []Change {
				return classChanges(out, ys, codes, px.Class(i))
			})
			if err != nil {
				run.SetAttr("passes", passes)
				return finish(err)
			}
			// Apply serially in class order: classes are disjoint row
			// sets, so applying after computing leaves the same instance
			// the sequential interleaved version produced.
			for _, chs := range perClass {
				for _, ch := range chs {
					out.SetValue(ch.Row, ch.Col, ch.New)
					changes = append(changes, ch)
					dirty = true
				}
			}
		}
		if !dirty {
			break
		}
	}
	run.SetAttr("passes", passes)
	return finish(nil)
}

// classChanges computes the majority-vote overwrites for one LHS
// equivalence class without mutating the relation. codes[k] holds the
// dictionary codes of column ys[k]. The majority is the most frequent
// code, ties broken by the smallest Value.Key, and its value is the
// class's last occurrence of that code. Reads are confined to the class
// rows, which makes concurrent per-class calls safe.
func classChanges(out *relation.Relation, ys []int, codes [][]int, class []int32) []Change {
	var chs []Change
	for k, y := range ys {
		code := codes[k]
		if uniform(code, class) {
			continue
		}
		counts := map[int]int{}
		top := 0
		for _, row := range class {
			counts[code[row]]++
			top = max(top, counts[code[row]])
		}
		// One row per code with the top count, in class order.
		var tied []int32
		for _, row := range class {
			if counts[code[row]] == top {
				tied = append(tied, row)
				counts[code[row]] = 0
			}
		}
		pick := tied[0]
		if len(tied) > 1 {
			key := out.Value(int(pick), y).Key()
			for _, row := range tied[1:] {
				if rk := out.Value(int(row), y).Key(); rk < key {
					pick, key = row, rk
				}
			}
		}
		best := code[pick]
		last := len(class) - 1
		for code[class[last]] != best {
			last--
		}
		target := out.Value(int(class[last]), y)
		for _, row := range class {
			if code[row] != best {
				chs = append(chs, Change{Row: int(row), Col: y, Old: out.Value(int(row), y), New: target})
			}
		}
	}
	return chs
}

// uniform reports whether every row of class shares one code.
func uniform(codes []int, class []int32) bool {
	for _, row := range class[1:] {
		if codes[row] != codes[class[0]] {
			return false
		}
	}
	return true
}

// HolisticDCRepair repairs DC violations following the holistic strategy:
// collect all violations across the DC set, count per-cell involvement,
// and repeatedly repair the most conflicted cell until no violations
// remain or the update budget is exhausted. Cells are repaired by the
// minimal change that falsifies one predicate of each violation they
// participate in.
func HolisticDCRepair(r *relation.Relation, dcs []dc.DC, maxUpdates int) Result {
	out := r.Clone()
	var changes []Change
	if maxUpdates <= 0 {
		maxUpdates = r.Rows() * r.Cols()
	}
	for len(changes) < maxUpdates {
		cell, fix, found := mostConflictedCell(out, dcs)
		if !found {
			break
		}
		changes = append(changes, Change{Row: cell[0], Col: cell[1], Old: out.Value(cell[0], cell[1]), New: fix})
		out.SetValue(cell[0], cell[1], fix)
	}
	return Result{Repaired: out, Changes: changes}
}

// mostConflictedCell finds the cell participating in the most DC
// violations and proposes a fix value for it.
func mostConflictedCell(r *relation.Relation, dcs []dc.DC) ([2]int, relation.Value, bool) {
	type cellKey [2]int
	counts := map[cellKey]int{}
	proposals := map[cellKey]relation.Value{}
	for _, d := range dcs {
		for _, v := range d.Violations(r, 0) {
			// Attribute cells named by the predicates of the DC.
			for _, p := range d.Predicates {
				for _, op := range []dc.Operand{p.Left, p.Right} {
					if op.IsConst {
						continue
					}
					var row int
					if op.Tuple == dc.Alpha {
						row = v.Rows[0]
					} else {
						if len(v.Rows) < 2 {
							continue
						}
						row = v.Rows[1]
					}
					k := cellKey{row, op.Col}
					counts[k]++
					if _, ok := proposals[k]; !ok {
						proposals[k] = proposeFix(r, d, p, op, v)
					}
				}
			}
		}
	}
	var best cellKey
	bestCount := 0
	for k, c := range counts {
		if c > bestCount || (c == bestCount && less(k, best)) {
			best, bestCount = k, c
		}
	}
	if bestCount == 0 {
		return [2]int{}, relation.Value{}, false
	}
	return [2]int(best), proposals[best], true
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// proposeFix computes a value for the cell named by op that falsifies
// predicate p on the violating pair: for equality predicates the other
// side's value is copied (or invalidated for ≠); for order predicates the
// numeric value is nudged just past the bound.
func proposeFix(r *relation.Relation, d dc.DC, p dc.Predicate, op dc.Operand, v deps.Violation) relation.Value {
	rowOf := func(o dc.Operand) int {
		if o.Tuple == dc.Alpha || len(v.Rows) < 2 {
			return v.Rows[0]
		}
		return v.Rows[1]
	}
	var other relation.Value
	if p.Left == op {
		if p.Right.IsConst {
			other = p.Right.Const
		} else {
			other = r.Value(rowOf(p.Right), p.Right.Col)
		}
	} else {
		if p.Left.IsConst {
			other = p.Left.Const
		} else {
			other = r.Value(rowOf(p.Left), p.Left.Col)
		}
	}
	cur := r.Value(rowOf(op), op.Col)
	switch p.Op {
	case dc.OpEq:
		// Falsify equality: any distinct value; numeric +1, strings marked.
		if cur.IsNumeric() {
			return bump(cur, 1)
		}
		return relation.String(cur.Str() + "*")
	case dc.OpNe:
		return other
	case dc.OpLt, dc.OpLe:
		// cur < other must become false: raise cur to other (or above).
		if p.Left == op {
			return other
		}
		return cur // fixing the other side is the cheaper proposal
	case dc.OpGt, dc.OpGe:
		if p.Left == op {
			return other
		}
		return cur
	}
	return cur
}

func bump(v relation.Value, by float64) relation.Value {
	if v.Kind() == relation.KindInt {
		return relation.Int(int(v.Num() + by))
	}
	return relation.Float(v.Num() + by)
}

// Verify reports whether the repaired instance satisfies all dependencies.
func Verify(r *relation.Relation, rules []deps.Dependency) bool {
	for _, rule := range rules {
		if !rule.Holds(r) {
			return false
		}
	}
	return true
}

// Cost returns the number of changed cells — the standard repair-distance
// measure (paper §2.5.4: "directly computing a repair", judged by the
// number of value modifications).
func Cost(res Result) int { return len(res.Changes) }
