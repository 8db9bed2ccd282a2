package engine

import (
	"context"
	"sync/atomic"

	"deptree/internal/obs"
)

// Exec is one run's execution config: how many workers, under which
// budget, observed by which registry. Every discoverer and app Options
// struct embeds it, and Pool is the only pool constructor, so the three
// knobs are declared and interpreted in one place.
type Exec struct {
	// Workers fans the run's tasks out across goroutines. Values below 2
	// run the exact sequential path; the output is the same either way.
	Workers int
	// Budget bounds the run (deadline, task count, cache bytes); the
	// zero value is unlimited. An exhausted budget stops the run at a
	// fan-out boundary and it reports a deterministic partial result.
	Budget Budget
	// Obs optionally receives the run's metrics and spans (engine.*
	// pool counters plus the caller's own); nil is a no-op. Observation
	// never changes output.
	Obs *obs.Registry

	// tasks is the MaxTasks counter every pool built from this Exec
	// charges; nil gives each pool its own. Set by Share.
	tasks *atomic.Int64
}

// Pool builds the run's worker pool: max(Workers, 1) workers, a queue
// of twice that, a context that ends at Budget.Timeout, a MaxTasks cap
// enforced through Reserve, and Obs's engine.* metrics. Budget's
// MaxCacheBytes is not enforced by the pool; pass it to
// NewPartitionCacheBudget. Observation never feeds back into scheduling,
// so a pool with a registry runs the same task sequence as one without.
// The caller must Close the pool.
func (x Exec) Pool(ctx context.Context) *Pool {
	workers := max(x.Workers, 1)
	var cancel context.CancelFunc
	if x.Budget.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, x.Budget.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	used := x.tasks
	if used == nil {
		used = new(atomic.Int64)
	}
	p := &Pool{
		workers:  workers,
		tasks:    make(chan func(), 2*workers),
		ctx:      ctx,
		cancel:   cancel,
		maxTasks: x.Budget.MaxTasks,
		used:     used,
		obs:      x.Obs,
	}
	if reg := x.Obs; reg != nil {
		p.taskSec = reg.Histogram("engine.task.seconds")
		p.cCompleted = reg.Counter("engine.tasks.completed")
		p.cPanicked = reg.Counter("engine.tasks.panicked")
		p.cAborted = reg.Counter("engine.tasks.aborted")
		p.cCancelled = reg.Counter("engine.tasks.cancelled")
		p.cBudgetTrip = reg.Counter("engine.budget.max_tasks_trips")
		reg.Gauge("engine.workers").Set(int64(workers))
	}
	if workers > 1 {
		p.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func() {
				defer p.wg.Done()
				for task := range p.tasks {
					task()
				}
			}()
		}
	}
	return p
}

// Share prepares x for one run that builds several pools in sequence,
// such as sample-then-verify: the returned context carries the run's
// single deadline (Budget.Timeout from now), which every pool built from
// the returned Exec inherits, and those pools charge one shared MaxTasks
// counter. The run's budget is thereby spent once, not once per pool.
// Because the pools run one after another, the point where a shared
// MaxTasks trips is still independent of the worker count. Call cancel
// when the run ends.
func (x Exec) Share(ctx context.Context) (context.Context, Exec, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if x.Budget.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, x.Budget.Timeout)
		x.Budget.Timeout = 0
	}
	if x.tasks == nil {
		x.tasks = new(atomic.Int64)
	}
	return ctx, x, cancel
}
