// Package server is the HTTP serving layer of the discovery engine: a
// JSON API over the registry's 15 discoverers plus validation and
// repair, hardened for the long-tailed, memory-hungry requests dependency
// discovery produces (a TANE lattice or FASTDC evidence set can blow up
// on a small input).
//
// Robustness is structural, not best-effort:
//
//   - every request runs under the engine's Budget/DiscoverContext
//     machinery with a per-request deadline, task cap and byte-bounded
//     input (request.go);
//   - admission control sizes concurrent work to the worker pool and
//     sheds overload with 429 + Retry-After instead of queueing without
//     bound (admission.go);
//   - a per-endpoint circuit breaker converts repeated engine
//     panics/timeouts into fast 503s with backoff instead of repeatedly
//     feeding a poisoned workload to the pool (breaker.go);
//   - budget-truncated runs degrade to 200 with partial:true and the
//     same deterministic prefix the CLI emits;
//   - SIGTERM drains: readiness flips, admissions stop, in-flight
//     requests finish up to a drain deadline, then the engine contexts
//     are cancelled (server.go).
//
// This file holds the shared runners: the single run-and-render path
// used by both `deptool discover/validate/repair` and the HTTP handlers,
// which is what makes a served response byte-identical to the CLI output
// for the same input and budget (cmd/deptool/serve_test.go proves it).
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"

	"deptree/internal/apps/detect"
	"deptree/internal/apps/repair"
	"deptree/internal/deps"
	"deptree/internal/deps/fd"
	"deptree/internal/discovery/registry"
	"deptree/internal/engine"
	"deptree/internal/relation"
)

// ErrUnknownAlgo is returned by RunDiscover for an algorithm name outside
// Algorithms(). The server maps it to 404.
var ErrUnknownAlgo = errors.New("server: unknown algorithm")

// ErrSamplingUnsupported is returned by RunDiscover when sample knobs are
// set for a discoverer without sample-then-verify support. The server
// maps it to 400.
var ErrSamplingUnsupported = errors.New("server: sampling not supported")

// Algorithms lists the discoverers RunDiscover accepts — the full
// registry, in the order the CLI documents the names.
func Algorithms() []string { return registry.Names() }

// RunParams carries the options shared by every runner: the registry's
// run options, so a discover run passes them through unchanged.
type RunParams = registry.RunOptions

// DiscoverOutput is one discovery run rendered as the CLI renders it.
type DiscoverOutput = registry.Output

// RunDiscover runs one named discoverer over the relation under the
// params, with the exact option mapping of `deptool discover` (fastdc
// caps at 2 predicates, od reports minimal ODs; see the registry for the
// full table). The returned lines are deterministic for any worker
// count, including under a MaxTasks budget.
func RunDiscover(ctx context.Context, r *relation.Relation, algo string, p RunParams) (DiscoverOutput, error) {
	a, ok := registry.Lookup(algo)
	if !ok {
		return DiscoverOutput{}, fmt.Errorf("%w %q", ErrUnknownAlgo, algo)
	}
	if p.SampleRows > 0 && !a.Sampling {
		return DiscoverOutput{}, fmt.Errorf("%w by %q", ErrSamplingUnsupported, algo)
	}
	return a.Run(ctx, r, p), nil
}

// ParseFD parses one "lhs1,lhs2->rhs" spec against a schema.
func ParseFD(schema *relation.Schema, spec string) (fd.FD, error) {
	parts := strings.SplitN(spec, "->", 2)
	if len(parts) != 2 {
		return fd.FD{}, fmt.Errorf("FD spec %q must be lhs->rhs", spec)
	}
	split := func(s string) []string {
		var out []string
		for _, x := range strings.Split(s, ",") {
			if x = strings.TrimSpace(x); x != "" {
				out = append(out, x)
			}
		}
		return out
	}
	return fd.New(schema, split(parts[0]), split(parts[1]))
}

// ParseFDList parses a ";"-separated list of FD specs, skipping empty
// entries. An empty list is an error: validate and repair need at least
// one rule.
func ParseFDList(schema *relation.Schema, specs string) ([]fd.FD, error) {
	var out []fd.FD
	for _, spec := range strings.Split(specs, ";") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		f, err := ParseFD(schema, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, errors.New("no FD specs given")
	}
	return out, nil
}

// ValidateOutput is one validation run rendered as the CLI renders it.
type ValidateOutput struct {
	// Report is the violation report plus the per-rule g3 error lines
	// for the completed prefix, exactly as `deptool validate` prints
	// them.
	Report string
	// Stop and Completed mirror detect.RunResult.
	engine.Stop
	Completed int
	// Rules is the number of rules requested.
	Rules int
}

// Text renders the output exactly as `deptool validate` writes it to
// stdout, PARTIAL marker included.
func (o ValidateOutput) Text() string {
	if !o.Partial {
		return o.Report
	}
	return o.Report + fmt.Sprintf("PARTIAL: %s (checked %d of %d rules)\n", o.Reason, o.Completed, o.Rules)
}

// RunValidate checks the FDs against the relation with the exact option
// mapping of `deptool validate` (20 witnesses per rule).
func RunValidate(ctx context.Context, r *relation.Relation, fds []fd.FD, p RunParams) ValidateOutput {
	rules := make([]deps.Dependency, len(fds))
	for i, f := range fds {
		rules[i] = f
	}
	res := detect.RunContext(ctx, r, rules, detect.Options{PerRuleLimit: 20, Exec: p.Exec()})
	var b strings.Builder
	b.WriteString(detect.Format(res.Reports))
	for i, f := range fds {
		if i >= res.Completed {
			break
		}
		fmt.Fprintf(&b, "g3 error: %.4f\n", f.G3(r))
	}
	return ValidateOutput{
		Report:    b.String(),
		Stop:      res.Stop,
		Completed: res.Completed,
		Rules:     len(rules),
	}
}

// RepairOutput is one repair run: the repaired instance as CSV plus the
// applied changes, rendered as the CLI renders them.
type RepairOutput struct {
	// CSV is the repaired relation encoded exactly as `deptool repair`
	// writes it to stdout.
	CSV string
	// Changes holds one rendered cell change per entry, in application
	// order.
	Changes []string
	// Stop mirrors repair.Result.
	engine.Stop
}

// RunRepair repairs the FDs' violations by in-class majority vote, the
// exact path of `deptool repair`. The CSV is encoded into memory, which
// cannot fail, so the error is always nil; the result keeps it for the
// benchmark driver (servebench), which calls RunRepair with two results.
func RunRepair(ctx context.Context, r *relation.Relation, fds []fd.FD, p RunParams) (RepairOutput, error) {
	res := repair.FDRepairContext(ctx, r, fds, repair.Options{Exec: p.Exec()})
	var buf bytes.Buffer
	relation.WriteCSV(res.Repaired, &buf) // a bytes.Buffer write never fails
	out := RepairOutput{CSV: buf.String(), Stop: res.Stop}
	for _, ch := range res.Changes {
		out.Changes = append(out.Changes, ch.String())
	}
	return out, nil
}
