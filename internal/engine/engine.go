// Package engine is the shared parallel-execution substrate for the
// discovery algorithms: a bounded worker pool with context cancellation,
// built from one execution config (exec.go), per-run resource budgets
// (budget.go), deterministic fan-out helpers, and a concurrency-safe
// memoizing partition cache (cache.go).
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
// the process, Submit after Close returns ErrPoolClosed instead of
// panicking on a closed channel, and an exhausted Budget stops the run
// with ErrMaxTasks or context.DeadlineExceeded so callers can report a
// deterministic partial result.
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
// safe to use (Close still drains, Submit returns errors).
type PanicError struct {
	// Task is the fan-out index of the panicking task, or -1 for a task
	// submitted directly via Submit.
	Task int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Task >= 0 {
		return fmt.Sprintf("engine: task %d panicked: %v", e.Task, e.Value)
	}
	return fmt.Sprintf("engine: task panicked: %v", e.Value)
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

// Pool is a bounded worker pool, built by Exec.Pool. A Pool with one
// worker executes every task inline on the submitting goroutine — the
// exact sequential legacy path, with no goroutines and no channel
// traffic — so algorithms can use one code path for both modes.
// Budgets (deadline, max tasks) are honored in both modes.
//
// Tasks submitted to the same Pool must not themselves submit to that
// Pool: with every worker blocked on a full queue the pool would deadlock.
// The discovery algorithms fan out one loop at a time, so nesting never
// arises there.
type Pool struct {
	workers int
	tasks   chan func()
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	once    sync.Once

	// mu guards closed against the Submit/Close race: senders hold the
	// read lock across the channel send, Close sets closed under the
	// write lock before closing the channel, and cancels the context
	// first so a blocked sender always wakes and releases the lock.
	mu     sync.RWMutex
	closed bool

	// maxTasks caps Reserve'd task executions (0 = unlimited); used is
	// the running total, shared by every pool of one run (Exec.Share).
	maxTasks int64
	used     *atomic.Int64

	failMu  sync.Mutex
	failure error

	// obs is the run's optional metrics registry (nil = no-op). The
	// handles below are resolved once at construction so the task hot
	// path never takes the registry lock; on a nil registry they are nil,
	// which every obs handle accepts as a no-op.
	obs         *obs.Registry
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
// the pool so queued work is skipped.
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

// exec runs fn with panic isolation and the chaos hook. It reports
// whether fn completed; on panic the run is failed with a task-attributed
// *PanicError (or, for Abort, the aborting error) and ok is false.
func (p *Pool) exec(task int, fn func()) (ok bool) {
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
		fn()
		p.taskSec.Observe(time.Since(start).Seconds())
	} else {
		fn()
	}
	p.cCompleted.Inc()
	return true
}

// isClosed reports whether Close has begun.
func (p *Pool) isClosed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}

// send enqueues task for a worker. It blocks while the queue is full and
// returns ErrPoolClosed after Close or the pool's failure/context error
// on cancellation — never panicking on a closed channel.
func (p *Pool) send(task func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- task:
		return nil
	case <-p.ctx.Done():
		return p.cause()
	}
}

// Submit runs the task on a worker (or inline for a one-worker pool). It
// blocks while the queue is full. It returns ErrPoolClosed after Close,
// the pool's failure/context error if the run is already cancelled, and —
// in inline mode — the task's own converted panic, if any.
func (p *Pool) Submit(task func()) error {
	if p.isClosed() {
		return ErrPoolClosed
	}
	if err := p.cause(); err != nil {
		return err
	}
	if err := p.Reserve(1); err != nil {
		return err
	}
	if p.workers <= 1 {
		if p.exec(-1, task) {
			return nil
		}
		return p.cause()
	}
	return p.send(func() { p.exec(-1, task) })
}

// Cancel aborts the pool: queued tasks wrapped by ForEach become no-ops
// and further Submits fail. Workers stay alive until Close.
func (p *Pool) Cancel() { p.cancel() }

// Close cancels the context, stops the workers and waits for them to
// drain. It is safe to call more than once, and safe against concurrent
// Submit/ForEach calls: late submissions get ErrPoolClosed.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.cancel()
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.tasks)
		p.wg.Wait()
	})
}

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
	n := hi - lo
	if p == nil {
		for i := lo; i < hi; i++ {
			fn(i)
		}
		return nil
	}
	if n <= 0 {
		return nil
	}
	if err := p.Reserve(n); err != nil {
		return err
	}
	var completed atomic.Int64
	if p.workers <= 1 {
		for i := lo; i < hi; i++ {
			if err := p.cause(); err != nil {
				return err
			}
			i := i
			if !p.exec(i, func() { fn(i) }) {
				return p.cause()
			}
			completed.Add(1)
		}
		return nil
	}
	var wg sync.WaitGroup
	var sendErr error
	for i := lo; i < hi; i++ {
		i := i
		wg.Add(1)
		err := p.send(func() {
			defer wg.Done()
			if p.cause() != nil {
				p.cCancelled.Inc()
				return
			}
			if p.exec(i, func() { fn(i) }) {
				completed.Add(1)
			}
		})
		if err != nil {
			wg.Done()
			sendErr = err
			break
		}
	}
	wg.Wait()
	if completed.Load() == int64(n) {
		return nil
	}
	if err := p.cause(); err != nil {
		return err
	}
	return sendErr
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
// run (nil when all n completed). Because the batch boundaries and the
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
