package registry

import (
	"context"
	"testing"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/obs"
)

// TestPartialRunsTraceTheirStop: every registered discoverer, cut by a
// cancelled context or by MaxTasks 1 (sampling-capable ones also in
// sample mode), comes back Partial, and the run span that ends last —
// the outermost run — carries the "stop" attribute equal to the
// Output's Reason, so a trace alone says why a run stopped.
func TestPartialRunsTraceTheirStop(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 200, Seed: 7, ErrorRate: 0.02, VarietyRate: 0.05, DuplicateRate: 0.1})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	oneTask := engine.Budget{MaxTasks: 1}
	type mode struct {
		name string
		ctx  context.Context
		o    RunOptions
	}
	for _, a := range All() {
		modes := []mode{
			{"cancelled", cancelled, RunOptions{Workers: 2}},
			{"max-tasks", context.Background(), RunOptions{Workers: 2, Budget: oneTask}},
		}
		if a.Sampling {
			modes = append(modes, mode{"sampled max-tasks", context.Background(),
				RunOptions{Workers: 2, Budget: oneTask, SampleRows: 50}})
		}
		for _, m := range modes {
			reg := obs.New()
			m.o.Obs = reg
			out := a.Run(m.ctx, r, m.o)
			if !out.Partial {
				t.Errorf("%s %s: run not partial", a.Name, m.name)
				continue
			}
			var last *obs.Event
			events := reg.Events()
			for i := range events {
				if events[i].Kind == obs.KindRun {
					last = &events[i]
				}
			}
			if last == nil {
				t.Errorf("%s %s: no run span", a.Name, m.name)
				continue
			}
			if got := last.Attrs["stop"]; got != out.Reason {
				t.Errorf("%s %s: last run span %q has stop %v, want %q", a.Name, m.name, last.Name, got, out.Reason)
			}
		}
	}
}
