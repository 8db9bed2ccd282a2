// Package registry is the single enrollment point for every discoverer
// in the family tree: each algorithm registers a name, its dependency
// class, and a context-aware runner that maps engine-level results to the
// rendered lines the CLI and server emit. The server's endpoint table,
// the CLI's algo dispatch, and the differential/chaos/fuzz harnesses all
// iterate this table, so adding an algorithm here enrolls it everywhere
// at once — the completeness test in internal/engine proves no endpoint
// escapes the harnesses.
package registry

import (
	"context"
	"fmt"
	"strings"

	"deptree/internal/deps"
	"deptree/internal/deps/dd"
	"deptree/internal/deps/fd"
	"deptree/internal/deps/ned"
	"deptree/internal/deps/od"
	"deptree/internal/discovery/cddisc"
	"deptree/internal/discovery/cfddisc"
	"deptree/internal/discovery/cords"
	"deptree/internal/discovery/dddisc"
	"deptree/internal/discovery/fastdc"
	"deptree/internal/discovery/fastfd"
	"deptree/internal/discovery/ffddisc"
	"deptree/internal/discovery/mddisc"
	"deptree/internal/discovery/mvddisc"
	"deptree/internal/discovery/nedisc"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/pfddisc"
	"deptree/internal/discovery/sampling"
	"deptree/internal/discovery/sddisc"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/metric"
	"deptree/internal/obs"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// RunOptions carries the options every registered runner understands.
// It is the one run-options type of the serving layer (server.RunParams
// is an alias); Workers, Budget and Obs stay direct fields for callers
// that build it by name, and reach the discoverers through Exec.
type RunOptions struct {
	// Workers is the engine worker count (<= 0 selects 1).
	Workers int
	// Budget bounds the run; exhausted budgets degrade to a Partial
	// output, never an error. A sampled run spends it once across both
	// of its phases.
	Budget engine.Budget
	// MaxErr is the g3 budget for approximate FDs (tane only).
	MaxErr float64
	// SampleRows > 0 selects sample-then-verify mode on discoverers with
	// Sampling: candidates are mined on a deterministic SampleRows-row
	// sample and only those verified exactly on the full relation are
	// emitted. Discoverers without Sampling ignore the knobs; callers
	// (server, CLI) reject the combination up front with a typed error.
	SampleRows int
	// SampleSeed seeds the deterministic sample permutation.
	SampleSeed int64
	// Obs optionally receives the run's metrics; nil is a no-op.
	Obs *obs.Registry
}

// Exec returns the run's execution config.
func (o RunOptions) Exec() engine.Exec {
	return engine.Exec{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs}
}

// sampled runs a sampling-capable discoverer: discover over the full
// relation, or, with SampleRows > 0, sample-then-verify — discover on the
// sample, then keep the candidates that the verifier (built only in that
// mode) confirms on the full relation. Both phases share one budget.
func sampled[T any](ctx context.Context, r *relation.Relation, o RunOptions,
	discover func(ctx context.Context, r *relation.Relation, x engine.Exec) ([]T, engine.Stop),
	verifier func() func(*engine.Pool, T) bool) ([]T, engine.Stop) {
	if o.SampleRows <= 0 {
		return discover(ctx, r, o.Exec())
	}
	res := sampling.Run(ctx, r, sampling.Options{Rows: o.SampleRows, Seed: o.SampleSeed, Exec: o.Exec()},
		discover, verifier())
	return res.Verified, res.Stop
}

// fdVerifier builds the exact-verification predicate sampled FD
// discovery applies to each candidate — the same validity criterion tane
// uses per lattice level: exact partition refinement, or g3 within the
// error budget. All verifications share one partition cache over the
// full relation, so each attribute set is hashed from row values at most
// once and multi-attribute partitions come from cached products; without
// the cache every verified FD would rebuild its partitions from scratch,
// which at a million rows costs more than full-mode discovery. Like
// tane's own cache, it is bounded by the run's Budget.MaxCacheBytes and
// mirrored into its Obs registry.
func fdVerifier(r *relation.Relation, maxErr float64, x engine.Exec) func(*engine.Pool, fd.FD) bool {
	cache := engine.NewPartitionCache(r, x.Budget.MaxCacheBytes)
	cache.SetObserver(x.Obs)
	return func(_ *engine.Pool, f fd.FD) bool {
		px := cache.Get(f.LHS)
		if maxErr > 0 {
			codes, _ := r.GroupCodes(f.RHS.Cols())
			return px.G3(codes) <= maxErr
		}
		return partition.Refines(px, cache.Get(f.LHS.Union(f.RHS)))
	}
}

// Output is one discovery run rendered as the CLI renders it: one
// dependency per line, plus the truncation state.
type Output struct {
	// Lines holds one rendered dependency per line, in the CLI's order.
	Lines []string
	// Stop is how the run ended; a Partial run's Lines are a
	// deterministic prefix of the full run's lines.
	engine.Stop
}

// Text renders the output exactly as `deptool discover` writes it to
// stdout: one dependency per line, then the PARTIAL marker line if the
// run was truncated.
func (o Output) Text() string {
	var b strings.Builder
	for _, line := range o.Lines {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if o.Partial {
		fmt.Fprintf(&b, "PARTIAL: %s\n", o.Reason)
	}
	return b.String()
}

// Algo is one registered discoverer.
type Algo struct {
	// Name is the endpoint and CLI name (POST /v1/discover/{Name},
	// deptool discover -algo {Name}).
	Name string
	// Class is the dependency class of the family tree the algorithm
	// mines (FD, CFD, MD, ...).
	Class string
	// Doc is a one-line description for the README endpoint table.
	Doc string
	// Sampling marks discoverers that honor RunOptions.SampleRows with
	// the sample-then-verify driver. Call sites reject sample knobs on
	// discoverers without it.
	Sampling bool
	// Run executes the discoverer over the relation under the options.
	// Lines are deterministic for any worker count, including under a
	// MaxTasks budget.
	Run func(ctx context.Context, r *relation.Relation, o RunOptions) Output
}

// render maps a discovery result slice and its stop to an Output.
func render[T fmt.Stringer](xs []T, stop engine.Stop) Output {
	return Output{Lines: deps.Lines(xs), Stop: stop}
}

// lastCol returns the default RHS column for RHS-directed discoverers:
// the relation's last column, the conventional "measure" position of the
// fixtures and the documented servable default.
func lastCol(r *relation.Relation) int { return r.Cols() - 1 }

// algos is the registry, in the order the CLI documents the names: the
// five original engine-wired discoverers first, then the rest of the
// family tree.
var algos = []Algo{
	{
		Name: "tane", Class: "FD",
		Doc:      "TANE partition-based (approximate) FD discovery",
		Sampling: true,
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			return render(sampled(ctx, r, o,
				func(ctx context.Context, r *relation.Relation, x engine.Exec) ([]fd.FD, engine.Stop) {
					res := tane.DiscoverContext(ctx, r, tane.Options{MaxError: o.MaxErr, Exec: x})
					return res.FDs, res.Stop
				},
				func() func(*engine.Pool, fd.FD) bool { return fdVerifier(r, o.MaxErr, o.Exec()) }))
		},
	},
	{
		Name: "fastfd", Class: "FD",
		Doc:      "FastFD difference-set FD discovery",
		Sampling: true,
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			return render(sampled(ctx, r, o,
				func(ctx context.Context, r *relation.Relation, x engine.Exec) ([]fd.FD, engine.Stop) {
					res := fastfd.DiscoverContext(ctx, r, fastfd.Options{Exec: x})
					return res.FDs, res.Stop
				},
				func() func(*engine.Pool, fd.FD) bool { return fdVerifier(r, 0, o.Exec()) }))
		},
	},
	{
		Name: "cords", Class: "SFD",
		Doc: "CORDS soft-FD (correlation) discovery",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := cords.DiscoverContext(ctx, r, cords.Options{Exec: o.Exec()})
			return render(res.SFDs, res.Stop)
		},
	},
	{
		Name: "fastdc", Class: "DC",
		Doc: "FastDC denial-constraint discovery (2-predicate)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := fastdc.DiscoverContext(ctx, r, fastdc.Options{MaxPredicates: 2, Exec: o.Exec()})
			return render(res.DCs, res.Stop)
		},
	},
	{
		Name: "od", Class: "OD",
		Doc:      "Set-based order dependency discovery (minimal ODs)",
		Sampling: true,
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			ods, stop := sampled(ctx, r, o,
				func(ctx context.Context, r *relation.Relation, x engine.Exec) ([]od.OD, engine.Stop) {
					res := oddisc.DiscoverContext(ctx, r, oddisc.Options{Exec: x})
					return res.ODs, res.Stop
				},
				// One set-based verifier over the full relation: per-column
				// rank arrays are built once, each candidate check is a
				// linear scan.
				func() func(*engine.Pool, od.OD) bool {
					v := oddisc.NewVerifier(r)
					return func(_ *engine.Pool, c od.OD) bool { return v.Holds(c) }
				})
			// Minimality is re-derived after verification, which can thin
			// the transitive structure.
			return render(oddisc.Minimal(ods), stop)
		},
	},
	{
		Name: "lexod", Class: "OD",
		Doc:      "Lexicographic order dependency discovery",
		Sampling: true,
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			return render(sampled(ctx, r, o,
				func(ctx context.Context, r *relation.Relation, x engine.Exec) ([]od.LexOD, engine.Stop) {
					res := oddisc.DiscoverLexContext(ctx, r, oddisc.LexOptions{Exec: x})
					return res.ODs, res.Stop
				},
				func() func(*engine.Pool, od.LexOD) bool {
					return func(p *engine.Pool, c od.LexOD) bool { return oddisc.LexHolds(p, r, c) }
				}))
		},
	},
	{
		Name: "cfd", Class: "CFD",
		Doc: "CFDMiner-style minimal constant CFD mining",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := cfddisc.DiscoverContext(ctx, r, cfddisc.Options{Exec: o.Exec()})
			return render(res.CFDs, res.Stop)
		},
	},
	{
		Name: "pfd", Class: "PFD",
		Doc: "Probabilistic FD discovery (majority-probability counting)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := pfddisc.DiscoverContext(ctx, r, pfddisc.Options{Exec: o.Exec()})
			return render(res.PFDs, res.Stop)
		},
	},
	{
		Name: "ffd", Class: "FFD",
		Doc: "Fuzzy FD discovery over resemblance relations",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := ffddisc.DiscoverContext(ctx, r, ffddisc.Options{Exec: o.Exec()})
			return render(res.FFDs, res.Stop)
		},
	},
	{
		Name: "md", Class: "MD",
		Doc: "Matching dependency discovery (RHS: last column)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := mddisc.DiscoverContext(ctx, r, mddisc.Options{Exec: o.Exec()})
			return render(res.MDs, res.Stop)
		},
	},
	{
		Name: "dd", Class: "DD",
		Doc: "Differential dependency discovery (RHS: last column, equality)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			if r.Cols() == 0 {
				return Output{}
			}
			c := lastCol(r)
			res := dddisc.DiscoverContext(ctx, r, dddisc.Options{
				RHS:  dd.DiffFunc{Col: c, Metric: metric.ForKind(r.Schema().Attr(c).Kind), Op: dd.OpLe, Threshold: 0},
				Exec: o.Exec(),
			})
			return render(res.DDs, res.Stop)
		},
	},
	{
		Name: "ned", Class: "NED",
		Doc: "Neighborhood dependency discovery (RHS: last column)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			if r.Cols() == 0 {
				return Output{}
			}
			c := lastCol(r)
			res := nedisc.DiscoverContext(ctx, r, nedisc.Options{
				RHS:  ned.Predicate{{Col: c, Metric: metric.ForKind(r.Schema().Attr(c).Kind), Threshold: 0}},
				Exec: o.Exec(),
			})
			return render(res.NEDs, res.Stop)
		},
	},
	{
		Name: "cd", Class: "CD",
		Doc: "Comparable dependency discovery (pay-as-you-go session)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := cddisc.DiscoverContext(ctx, r, cddisc.Options{Exec: o.Exec()})
			return render(res.CDs, res.Stop)
		},
	},
	{
		Name: "mvd", Class: "MVD",
		Doc: "Multivalued dependency discovery (top-down search)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := mvddisc.DiscoverContext(ctx, r, mvddisc.Options{Exec: o.Exec()})
			return render(res.MVDs, res.Stop)
		},
	},
	{
		Name: "sd", Class: "SD",
		Doc: "Sequential dependency discovery (fitted gap intervals)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := sddisc.DiscoverContext(ctx, r, sddisc.Options{Exec: o.Exec()})
			return render(res.SDs, res.Stop)
		},
	},
}

// All returns every registered discoverer in documentation order.
func All() []Algo { return algos }

// Names returns the registered names in documentation order.
func Names() []string {
	out := make([]string, len(algos))
	for i, a := range algos {
		out[i] = a.Name
	}
	return out
}

// Lookup resolves a name to its Algo.
func Lookup(name string) (Algo, bool) {
	for _, a := range algos {
		if a.Name == name {
			return a, true
		}
	}
	return Algo{}, false
}
