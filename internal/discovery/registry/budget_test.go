package registry

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// budgetSlack is how far past its Timeout a sampled run may return: the
// task in flight when the deadline fires, plus the verifier built before
// the run starts.
const budgetSlack = 40 * time.Millisecond

// TestSampledRunSpendsOneBudget: the discovery and verification phases
// of a sampled run share one budget. Under MaxTasks one below the run's
// unbudgeted task count, at most MaxTasks tasks execute in total (with a
// budget per phase, both phases would fit and all would run); under a
// 40 ms Timeout, with every task slowed by 2 ms, the run returns within
// budgetSlack of the deadline.
func TestSampledRunSpendsOneBudget(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 2000, Seed: 3})
	var tasks, delay atomic.Int64
	defer engine.SetTaskHook(func(*engine.Pool, int) {
		tasks.Add(1)
		time.Sleep(time.Duration(delay.Load()))
	})()
	for _, a := range samplingAlgos(t) {
		o := RunOptions{Workers: 1, SampleRows: 400, SampleSeed: 3}
		tasks.Store(0)
		a.Run(context.Background(), r, o)
		unbudgeted := tasks.Load()
		o.Budget = engine.Budget{MaxTasks: unbudgeted - 1}
		tasks.Store(0)
		out := a.Run(context.Background(), r, o)
		if got := tasks.Load(); got > o.Budget.MaxTasks || out.Reason != "max-tasks" {
			t.Errorf("%s: ran %d tasks under MaxTasks %d (reason %q)", a.Name, got, o.Budget.MaxTasks, out.Reason)
		}

		o.Budget = engine.Budget{Timeout: 40 * time.Millisecond}
		delay.Store(int64(2 * time.Millisecond))
		start := time.Now()
		a.Run(context.Background(), r, o)
		elapsed := time.Since(start)
		delay.Store(0)
		if elapsed > o.Budget.Timeout+budgetSlack {
			t.Errorf("%s: returned after %v under a %v Timeout", a.Name, elapsed, o.Budget.Timeout)
		}
	}
}

// TestSampledFDVerifierHonoursCacheBudget: the verification phase of a
// sampled tane or fastfd run builds its partition cache under the run's
// MaxCacheBytes and reports into its Obs registry. On the 50-row sample
// a→b holds, and the sample's partitions fit the bound; the evictions
// and the final cache.bytes reading come from refuting a→b on the full
// 2,000 rows, where each partition is ~8 KiB.
func TestSampledFDVerifierHonoursCacheBudget(t *testing.T) {
	r := relation.New("near-fd", relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindInt},
		relation.Attribute{Name: "b", Kind: relation.KindInt},
		relation.Attribute{Name: "c", Kind: relation.KindInt}))
	for i := 0; i < 2000; i++ {
		b := i % 40 % 7
		if i%500 == 499 {
			b = 99
		}
		if err := r.Append([]relation.Value{relation.Int(i % 40), relation.Int(b), relation.Int(i / 40 % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 20 << 10
	for _, name := range []string{"tane", "fastfd"} {
		a, _ := Lookup(name)
		reg := obs.New()
		o := RunOptions{Workers: 2, SampleRows: 50, SampleSeed: 5, Obs: reg}
		want := a.Run(context.Background(), r, o).Text()
		if reg.Counter("sampling.refuted").Value() == 0 {
			t.Fatalf("%s: the sample refuted nothing; the verifier never ran", name)
		}
		reg = obs.New()
		o.Budget, o.Obs = engine.Budget{MaxCacheBytes: bound}, reg
		if got := a.Run(context.Background(), r, o).Text(); got != want {
			t.Errorf("%s: output under MaxCacheBytes differs:\n%s\nwant:\n%s", name, got, want)
		}
		if got := reg.Gauge("cache.bytes").Value(); got <= 0 || got > bound {
			t.Errorf("%s: cache.bytes = %d, want within (0, %d]", name, got, bound)
		}
		if reg.Counter("cache.evictions").Value() == 0 {
			t.Errorf("%s: no evictions recorded under a %d-byte cache bound", name, bound)
		}
	}
}
