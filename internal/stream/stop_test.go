package stream_test

import (
	"context"
	"testing"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/stream"
)

// TestPartialSyncsTraceTheirStop: a drift sync cut by a cancelled
// context or by MaxTasks 1 comes back Partial, and the run span that ends last — the sync's own —
// carries the "stop" attribute equal to the BatchResult's Reason, as the
// registry's discoverers do, so a trace alone says why a stream batch
// stopped. A sync that completes leaves no stop.
func TestPartialSyncsTraceTheirStop(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type mode struct {
		name   string
		ctx    context.Context
		budget engine.Budget
	}
	modes := []mode{
		{"cancelled", cancelled, engine.Budget{}},
		{"max-tasks", context.Background(), engine.Budget{MaxTasks: 1}},
	}
	for _, algo := range stream.Algorithms() {
		for _, m := range modes {
			plan := gen.AppendBatches(gen.AppendConfig{
				BaseRows: 120, BatchRows: 40, Batches: 1, DriftAt: 1, Seed: 7,
			})
			reg := obs.New()
			sess, err := stream.NewSession(algo, plan.Base.Schema(), stream.Options{Workers: 2, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			if res, err := sess.AppendBatch(context.Background(), tuples(plan.Base)); err != nil || res.Partial {
				t.Fatalf("%s %s: seeding batch: err %v, partial %v", algo, m.name, err, res.Partial)
			}
			sess.SetRun(2, m.budget)
			res, err := sess.AppendBatch(m.ctx, plan.Batches[0])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Partial {
				t.Errorf("%s %s: drift sync completed, want partial", algo, m.name)
				continue
			}
			var last *obs.Event
			events := reg.Events()
			for i := range events {
				if events[i].Kind == obs.KindRun {
					last = &events[i]
				}
			}
			var want any
			if res.Partial {
				want = res.Reason
			}
			if last.Name != "stream.sync" || last.Attrs["stop"] != want {
				t.Errorf("%s %s: last run span %q has stop %v, want stream.sync with %v", algo, m.name, last.Name, last.Attrs["stop"], want)
			}
		}
	}
}
