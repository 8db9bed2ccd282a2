// Package detect implements violation detection (paper Table 3, §1.1): run
// any set of dependencies against an instance and collect per-rule and
// per-tuple violation reports. This is the application the paper motivates
// first — fd1 flagging t3/t4 in Table 1 — and every dependency class in
// the library plugs in through the deps.Dependency interface.
package detect

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"deptree/internal/deps"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Report is the outcome of checking one dependency.
type Report struct {
	// Dep is the checked dependency.
	Dep deps.Dependency
	// Violations holds the witnesses (possibly truncated by the limit).
	Violations []deps.Violation
	// Truncated marks reports cut off by the per-rule limit.
	Truncated bool
}

// Options configures a detection run.
type Options struct {
	// PerRuleLimit caps witnesses per dependency (0 = unlimited).
	PerRuleLimit int
	// Exec is the run's worker count, budget and metrics registry;
	// the output is identical for every worker count.
	engine.Exec
}

// RunResult is a detection run's outcome. A Partial result covers the
// first Completed rules only — a deterministic prefix for any worker
// count, since rules fan out one per task in order.
type RunResult struct {
	Reports []Report
	engine.Stop
	// Completed is the number of rules fully checked.
	Completed int
}

// Run checks every dependency and returns one report per violated rule.
func Run(r *relation.Relation, rules []deps.Dependency, opts Options) []Report {
	return RunContext(context.Background(), r, rules, opts).Reports
}

// RunContext is Run under a context and Options.Budget: rules fan out
// across Options.Workers goroutines (one rule per task, so a truncated
// run stops on an exact rule boundary) and budget exhaustion yields a
// Partial prefix instead of failing.
func RunContext(ctx context.Context, r *relation.Relation, rules []deps.Dependency, opts Options) RunResult {
	reg := opts.Obs
	pool := opts.Pool(ctx)
	defer pool.Close()

	run := reg.StartSpan(obs.KindRun, "detect")
	run.SetAttr("rows", r.Rows())
	run.SetAttr("rules", len(rules))
	defer run.End()

	ruleTimer := reg.Histogram("detect.rules.seconds").Start()
	reps, done, err := engine.MapBudget(pool, len(rules), 1, func(i int) Report {
		rule := rules[i]
		limit := opts.PerRuleLimit
		probe := limit
		if probe > 0 {
			probe++ // detect truncation
		}
		vs := rule.Violations(r, probe)
		rep := Report{Dep: rule, Violations: vs}
		if limit > 0 && len(vs) > limit {
			rep.Violations = vs[:limit]
			rep.Truncated = true
		}
		return rep
	})
	ruleTimer()
	reg.Counter("detect.rules.checked").Add(int64(done))
	res := RunResult{Completed: done, Stop: engine.StopAt(run, err)}
	for i := 0; i < done; i++ {
		if len(reps[i].Violations) > 0 {
			res.Reports = append(res.Reports, reps[i])
		}
	}
	reg.Counter("detect.rules.violated").Add(int64(len(res.Reports)))
	return res
}

// TupleScores aggregates violations into per-tuple counts — the standard
// ranking heuristic for error localization: tuples implicated by more
// rules are more likely erroneous.
func TupleScores(reports []Report) map[int]int {
	scores := map[int]int{}
	for _, rep := range reports {
		for _, v := range rep.Violations {
			for _, row := range v.Rows {
				scores[row]++
			}
		}
	}
	return scores
}

// RankTuples returns row indices ordered by descending violation count.
func RankTuples(reports []Report) []int {
	scores := TupleScores(reports)
	rows := make([]int, 0, len(scores))
	for row := range scores {
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if scores[rows[i]] != scores[rows[j]] {
			return scores[rows[i]] > scores[rows[j]]
		}
		return rows[i] < rows[j]
	})
	return rows
}

// Format renders the reports for CLI output.
func Format(reports []Report) string {
	if len(reports) == 0 {
		return "no violations\n"
	}
	var b strings.Builder
	for _, rep := range reports {
		fmt.Fprintf(&b, "%s: %s\n", rep.Dep.Kind(), rep.Dep)
		for _, v := range rep.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
		if rep.Truncated {
			b.WriteString("  ...\n")
		}
	}
	return b.String()
}
