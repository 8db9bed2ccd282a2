// Package engine is the shared parallel-execution substrate for the
// discovery algorithms: a per-run fan-out context with context
// cancellation, built from one execution config (exec.go), per-run
// resource budgets (budget.go), deterministic fan-out helpers, and a
// concurrency-safe memoizing partition cache (cache.go).
//
// The paper's Fig 3 places FD/CFD/OD/DC discovery in the
// exponential-lattice difficulty band; the engine lets each level or
// stripe of those searches fan out across goroutines while preserving a
// hard determinism contract: for any worker count, a discovery run must
// emit exactly the same dependency set as the sequential run. The fan-out
// helpers support that contract by assigning every task a stable index and
// collecting results positionally, so scheduling order never leaks into
// output order. internal/engine/differential_test.go enforces the contract
// for every parallelized algorithm.
//
// The pool also implements the failure model every discovery run relies
// on (DESIGN.md "Failure model"): a panicking task is converted into a
// task-attributed *PanicError that cancels the run instead of crashing
// the process, a fan-out after Close fails with context.Canceled, and an
// exhausted Budget stops the run with ErrMaxTasks or
// context.DeadlineExceeded so callers can report a deterministic partial
// result.
package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"deptree/internal/obs"
)

// PanicError is the error a panicking task is converted into: the run is
// cancelled, the panic value and stack are preserved, and the pool stays
// safe to Close and to query.
type PanicError struct {
	// Task is the fan-out index of the panicking task.
	Task int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: task %d panicked: %v", e.Task, e.Value)
}

// abortPanic carries an error out of a task through Abort.
type abortPanic struct{ err error }

// Abort unwinds the calling task, recording err as the pool failure (if
// none is recorded yet) without the task counting as completed. Long
// searches inside a single task call it to escape once the run is already
// cancelled — it is the mechanism that unpins a worker stuck in an
// exponential search space after the deadline fires. Abort must only be
// called from inside a task run by a Pool.
func Abort(err error) {
	panic(abortPanic{err: err})
}

// TaskHook observes (and may sabotage) every task execution. It is a
// test-only seam for the fault-injection harness in internal/engine/chaos:
// a hook may sleep, cancel the pool, or panic, and the pool must degrade
// cleanly. Production code never installs a hook.
type TaskHook func(p *Pool, task int)

var taskHook atomic.Pointer[TaskHook]

// SetTaskHook installs h as the global pre-task hook and returns a
// function that restores the previous hook. Intended for fault-injection
// tests only.
func SetTaskHook(h TaskHook) (restore func()) {
	prev := taskHook.Swap(&h)
	return func() { taskHook.Store(prev) }
}

// Pool is one run's fan-out context, built by Exec.Pool: the worker
// count, the deadline context, the task budget, the first failure and
// the metric handles. It keeps no goroutines of its own. Each fan-out runs
// its indices on the calling goroutine plus up to workers-1 helpers that
// it starts and joins; a one-worker pool, or a one-index fan-out, is the
// exact sequential legacy path, so algorithms use one code path for both
// modes. Budgets (deadline, max tasks) are honored in both modes.
//
// A task must not fan out on its own pool: the nested reservation would
// race the outer fan-out's remaining tasks for the budget, so the point
// where MaxTasks trips would depend on scheduling. The discovery
// algorithms fan out one loop at a time, so nesting never arises there.
type Pool struct {
	workers int
	ctx     context.Context
	cancel  context.CancelFunc

	// maxTasks caps Reserve'd task executions (0 = unlimited); used is
	// the running total, shared by every pool of one run (Exec.Share).
	maxTasks int64
	used     *atomic.Int64

	failMu  sync.Mutex
	failure error

	// The metric handles are resolved once at construction so the task
	// hot path never takes the registry lock; without a registry they are
	// nil, which every obs handle accepts as a no-op.
	taskSec     *obs.Histogram
	cCompleted  *obs.Counter
	cPanicked   *obs.Counter
	cAborted    *obs.Counter
	cCancelled  *obs.Counter
	cBudgetTrip *obs.Counter
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Used returns the number of budget-reserved task executions so far.
func (p *Pool) Used() int64 { return p.used.Load() }

// Err returns the first failure recorded on the pool (panic, exhausted
// task budget) or, absent one, the pool context's error. It is nil while
// the run is healthy; note that Close cancels the context, so Err is
// non-nil on a closed pool.
func (p *Pool) Err() error { return p.cause() }

func (p *Pool) cause() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	if p.failure != nil {
		return p.failure
	}
	return p.ctx.Err()
}

// fail records err as the run's failure (first writer wins) and cancels
// the pool so indices not yet started are skipped.
func (p *Pool) fail(err error) {
	p.failMu.Lock()
	if p.failure == nil {
		p.failure = err
	}
	p.failMu.Unlock()
	p.cancel()
}

// Reserve claims n task executions from the pool's task budget,
// all-or-nothing: either the whole claim fits and nil is returned, or the
// budget is left untouched, the run is failed with ErrMaxTasks and that
// error is returned. All-or-nothing reservation at fan-out granularity is
// what makes budget-truncated runs deterministic: the point where the
// budget trips depends only on the (worker-independent) sequence of
// fan-out sizes, never on scheduling.
func (p *Pool) Reserve(n int) error {
	if p.maxTasks <= 0 || n == 0 {
		return nil
	}
	for {
		cur := p.used.Load()
		if cur+int64(n) > p.maxTasks {
			p.cBudgetTrip.Inc()
			p.fail(ErrMaxTasks)
			return ErrMaxTasks
		}
		if p.used.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// exec runs fn(task) with panic isolation and the chaos hook. It reports
// whether fn completed; on panic the run is failed with a task-attributed
// *PanicError (or, for Abort, the aborting error) and ok is false.
func (p *Pool) exec(task int, fn func(int)) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			if ab, isAbort := v.(abortPanic); isAbort {
				p.cAborted.Inc()
				p.fail(ab.err)
				return
			}
			p.cPanicked.Inc()
			p.fail(&PanicError{Task: task, Value: v, Stack: debug.Stack()})
		}
	}()
	if h := taskHook.Load(); h != nil && *h != nil {
		(*h)(p, task)
	}
	if p.taskSec != nil {
		start := time.Now()
		fn(task)
		p.taskSec.Observe(time.Since(start).Seconds())
	} else {
		fn(task)
	}
	p.cCompleted.Inc()
	return true
}

// Cancel aborts the pool: indices of a running fan-out that have not
// started yet are skipped, and later fan-outs fail.
func (p *Pool) Cancel() { p.cancel() }

// Close cancels the pool's context, releasing its deadline timer. It is
// safe to call more than once and concurrently with a fan-out, which then
// stops as on Cancel; a fan-out after Close fails with context.Canceled.
func (p *Pool) Close() { p.cancel() }

// ForEach runs fn(i) for every i in [0, n), fanned out across the pool's
// workers, and blocks until all calls return. With one worker the calls
// happen inline in index order. The whole fan-out is Reserve'd against
// the task budget up front. ForEach returns nil when every index ran —
// even if a cancellation landed after the last index completed — and
// otherwise the failure that stopped the run (budget, deadline, panic,
// cancellation); indices not yet started when the stop lands are skipped.
func (p *Pool) ForEach(n int, fn func(i int)) error {
	return p.forEach(0, n, fn)
}

// forEach is ForEach over the index range [lo, hi); fan-out helpers use
// it so task attribution (PanicError.Task) carries global indices.
func (p *Pool) forEach(lo, hi int, fn func(i int)) error {
	if p == nil {
		for i := lo; i < hi; i++ {
			fn(i)
		}
		return nil
	}
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if err := p.Reserve(n); err != nil {
		return err
	}
	if workers := min(p.workers, n); workers > 1 {
		return p.fanOut(lo, hi, workers, fn)
	}
	for i := lo; i < hi; i++ {
		if err := p.cause(); err != nil {
			return err
		}
		if !p.exec(i, fn) {
			return p.cause()
		}
	}
	return nil
}

// fanOut runs [lo, hi) on the calling goroutine and workers-1 helpers,
// all claiming indices from one counter. Once the run stops, whoever sees
// it first claims every remaining index as skipped.
func (p *Pool) fanOut(lo, hi, workers int, fn func(i int)) error {
	var next, completed atomic.Int64
	next.Store(int64(lo))
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= hi {
				return
			}
			if p.cause() != nil {
				rest := int(next.Swap(int64(hi)))
				p.cCancelled.Add(int64(1 + max(hi-rest, 0)))
				return
			}
			if p.exec(i, fn) {
				completed.Add(1)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if completed.Load() == int64(hi-lo) {
		return nil
	}
	return p.cause()
}

// MapErr runs fn(i) for every i in [0, n) across the pool and returns the
// results positionally: out[i] = fn(i) regardless of scheduling order.
// This is the primitive the discovery algorithms build their determinism
// guarantee on. On a budget/cancellation/panic stop it returns the error
// that ended the run and no results (a partially-filled slice would be
// scheduling-dependent).
func MapErr[T any](p *Pool, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	if err := p.ForEach(n, func(i int) { out[i] = fn(i) }); err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultBatch is the stripe width MapBudget uses when the caller passes
// batch <= 0: large enough to keep every worker count the engine targets
// busy, small enough that budget-truncated runs keep a useful prefix.
const DefaultBatch = 32

// MapBudget runs fn positionally like MapErr but in fixed-size batches, each
// reserved against the pool's task budget before it starts. It returns
// the results for the longest prefix of fully-completed batches, the
// number of indices that prefix covers, and the error that stopped the
// run (nil when all n completed), which the caller turns into its
// result's Stop with StopAt. Because the batch boundaries and the
// all-or-nothing reservations are independent of the worker count, a
// MaxTasks-truncated run covers the same prefix for every worker count.
func MapBudget[T any](p *Pool, n, batch int, fn func(i int) T) ([]T, int, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	out := make([]T, n)
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		if err := p.forEach(lo, hi, func(i int) { out[i] = fn(i) }); err != nil {
			return out[:lo], lo, err
		}
	}
	return out, n, nil
}
