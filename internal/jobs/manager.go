package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// RunFunc executes one job attempt. The serving layer supplies it (the
// same run-and-render path the synchronous endpoints use), so a job's
// complete result is byte-identical to the equivalent direct request. A
// returned error wrapped in Transient is retried; any other error is
// terminal.
type RunFunc func(ctx context.Context, spec Spec) (Result, error)

// ErrQueueFull rejects a submission when the bounded work queue is at
// capacity. The server maps it to 429.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrDraining rejects submissions after Drain began. The server maps it
// to 503.
var ErrDraining = errors.New("jobs: draining")

// ErrUnknownJob is returned for an ID no record created.
var ErrUnknownJob = errors.New("jobs: unknown job")

// Config tunes a Manager. Zero values get production-safe defaults.
type Config struct {
	// Store persists job state (default: a fresh MemStore).
	Store Store
	// Run executes one attempt (required).
	Run RunFunc
	// Queue bounds how many jobs may sit queued (default 64); beyond it
	// Submit returns ErrQueueFull.
	Queue int
	// Runners is the number of concurrent job executors (default 2).
	// Each running job still runs under the serving layer's admission
	// semaphore, so runners bound queue drain, not engine load.
	Runners int
	// MaxAttempts bounds executions per job across transient failures
	// (default 3): the job fails terminally on the MaxAttempts-th
	// transient fault. Crash- or drain-interrupted attempts do not
	// count — replay must not burn retry budget on graceful restarts.
	MaxAttempts int
	// RetryBackoff is the first retry delay (default 100ms), doubling
	// per consecutive failure up to RetryMaxBackoff (default 5s), with
	// uniform jitter in [d/2, d].
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// JitterSeed seeds the backoff jitter (0 = time-seeded). Chaos and
	// recovery tests pin it for deterministic schedules.
	JitterSeed uint64
	// CompactEvery compacts the store after this many appended records
	// (default 256; < 0 disables).
	CompactEvery int64
	// Obs receives the job-state gauges, retry/replay/cache counters
	// and queue-latency histograms (nil = no-op).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.RetryMaxBackoff <= 0 {
		c.RetryMaxBackoff = 5 * time.Second
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 256
	}
	return c
}

// job is the manager's mutable record of one submission. Its spec drops
// the CSV at the terminal transition: a finished job's complete result
// is cached under its fingerprint, so nothing reads the CSV again.
type job struct {
	id          string
	seq         int64
	spec        Spec
	fingerprint string
	idemKey     string
	cacheHit    bool
	// rel is the submitter's parsed relation (Spec.Rel), handed to every
	// attempt until the job turns terminal. Nil for cache hits and for
	// jobs replayed from the store, whose runs parse the CSV.
	rel *relation.Relation

	state    State
	attempts int // execution starts (informational, persisted)
	retries  int // transient failures (drives MaxAttempts, persisted)
	reason   string
	result   *Result

	submittedAt time.Time
	enqueuedAt  time.Time

	cancelRequested bool
	cancelRun       context.CancelFunc

	done chan struct{} // closed at terminal transition
}

// View is the immutable API projection of one job. Result is shared
// with the manager's cache and must not be mutated.
type View struct {
	ID          string  `json:"id"`
	Kind        string  `json:"kind"`
	Algo        string  `json:"algo,omitempty"`
	State       State   `json:"state"`
	Attempts    int     `json:"attempts"`
	Retries     int     `json:"retries,omitempty"`
	Fingerprint string  `json:"fingerprint"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	Reason      string  `json:"reason,omitempty"`
	Result      *Result `json:"result,omitempty"`
}

func (j *job) view() View {
	return View{
		ID: j.id, Kind: j.spec.Kind, Algo: j.spec.Algo,
		State: j.state, Attempts: j.attempts, Retries: j.retries,
		Fingerprint: j.fingerprint, CacheHit: j.cacheHit,
		Reason: j.reason, Result: j.result,
	}
}

// Manager owns the bounded queue, the runner goroutines, the result
// cache and the store. Construct with New (which replays the store and
// re-enqueues interrupted work) and stop with Drain then Close.
type Manager struct {
	cfg   Config
	store Store
	reg   *obs.Registry

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submission order (replayed + live)
	fifo    []*job // queued work, FIFO
	byIdem  map[string]*job
	cache   map[string]*Result // CacheKey -> complete result
	seq     int64
	appends int64 // records since last compaction
	nQueued int
	closed  bool

	// storeMu serializes store appends against compaction: maybeCompact
	// snapshots and swaps the log while holding it, so no record can
	// land in the old file between the snapshot and the rename and be
	// silently discarded. Lock order is m.mu before storeMu (Submit
	// appends while holding m.mu; appendUnlock takes storeMu before it
	// releases m.mu); nothing acquires m.mu under storeMu.
	storeMu sync.Mutex

	draining  chan struct{} // closed when Drain begins
	drainOnce sync.Once
	wake      chan struct{} // 1-buffered enqueue signal
	runCtx    context.Context
	runCancel context.CancelFunc
	runnerWg  sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand

	gQueued, gRunning                            *obs.Gauge
	cSubmitted, cRetries, cBackpressure          *obs.Counter
	cReplayed                                    *obs.Counter
	cCacheHits, cCacheMisses                     *obs.Counter
	cDone, cPartial, cFailed, cCancelled         *obs.Counter
	cWALAppendErrs, cTruncatedTail, cCompactions *obs.Counter
	hQueueSec, hRunSec                           *obs.Histogram
}

// New builds a Manager over cfg.Store, replaying its records: terminal
// jobs come back served from memory (complete results also re-populate
// the fingerprint cache), and every job that was queued or running when
// the previous process died is re-enqueued in its original submission
// order. cfg.Run is required.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Run == nil {
		return nil, errors.New("jobs: Config.Run is required")
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	reg := cfg.Obs
	m := &Manager{
		cfg:      cfg,
		store:    cfg.Store,
		reg:      reg,
		jobs:     make(map[string]*job),
		byIdem:   make(map[string]*job),
		cache:    make(map[string]*Result),
		draining: make(chan struct{}),
		wake:     make(chan struct{}, 1),
		rng:      rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),

		gQueued:        reg.Gauge("jobs.queued"),
		gRunning:       reg.Gauge("jobs.running"),
		cSubmitted:     reg.Counter("jobs.submitted"),
		cRetries:       reg.Counter("jobs.retries"),
		cBackpressure:  reg.Counter("jobs.backpressure"),
		cReplayed:      reg.Counter("jobs.replayed"),
		cCacheHits:     reg.Counter("jobs.cache.hits"),
		cCacheMisses:   reg.Counter("jobs.cache.misses"),
		cDone:          reg.Counter("jobs.done"),
		cPartial:       reg.Counter("jobs.partial"),
		cFailed:        reg.Counter("jobs.failed"),
		cCancelled:     reg.Counter("jobs.cancelled"),
		cWALAppendErrs: reg.Counter("jobs.wal.append_errors"),
		cTruncatedTail: reg.Counter("jobs.wal.truncated_tail"),
		cCompactions:   reg.Counter("jobs.compactions"),
		hQueueSec:      reg.Histogram("jobs.queue.seconds"),
		hRunSec:        reg.Histogram("jobs.run.seconds"),
	}
	m.runCtx, m.runCancel = context.WithCancel(context.Background())
	if err := m.replay(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Runners; i++ {
		m.runnerWg.Add(1)
		go m.runner()
	}
	return m, nil
}

// replay folds the store's records back into jobs and re-enqueues
// interrupted work.
func (m *Manager) replay() error {
	recs, err := m.store.Replay()
	if err != nil {
		return err
	}
	if w, ok := m.store.(*WALStore); ok {
		m.cTruncatedTail.Add(int64(w.TornTail()))
	}
	// Finalize terminal jobs, re-enqueue the rest in submission order.
	m.order = fold(recs)
	for _, j := range m.order {
		j.done = make(chan struct{})
		j.submittedAt = time.Now()
		m.jobs[j.id] = j
		if j.idemKey != "" {
			m.byIdem[j.idemKey] = j
		}
		m.seq = max(m.seq, j.seq)
		if j.state.Terminal() {
			close(j.done)
			if j.state == StateDone && j.result != nil && !j.result.Partial {
				m.cache[j.spec.CacheKey(j.fingerprint)] = j.result
			}
			continue
		}
		j.state = StateQueued
		j.enqueuedAt = time.Now()
		m.fifo = append(m.fifo, j)
		m.nQueued++
		m.cReplayed.Inc()
	}
	m.gQueued.Set(int64(m.nQueued))
	return nil
}

// isDraining reports whether Drain has begun.
func (m *Manager) isDraining() bool {
	select {
	case <-m.draining:
		return true
	default:
		return false
	}
}

// Submit enqueues a job for the spec, or returns the existing job when
// the idempotency key was seen before, or an already-done job when the
// result cache holds a complete result for the spec's (fingerprint,
// kind, algo, params) key. The returned View reflects the state at
// return (queued, or a terminal cache/idempotency hit). A set spec.Rel
// is fingerprinted in place of parsing the CSV, and a queued job keeps
// it for its runs. Each record gets its own copy of the spec, so a store
// that keeps records (MemStore) still holds the CSV the job later drops.
// A cache hit is one submit record that carries the cached result in
// place of the CSV.
func (m *Manager) Submit(spec Spec, idemKey string) (View, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return View{}, err
	}
	rel := spec.Rel
	spec.Rel = nil
	m.mu.Lock()
	if m.closed || m.isDraining() {
		m.mu.Unlock()
		return View{}, ErrDraining
	}
	if idemKey != "" {
		if j, ok := m.byIdem[idemKey]; ok {
			v := j.view()
			m.mu.Unlock()
			return v, nil
		}
	}
	key := spec.CacheKey(fp)
	if cached, ok := m.cache[key]; ok {
		// The job is done at once: its one submit record carries the
		// result, so it replays done whether or not the original job's
		// result record is durable, and it needs no CSV.
		spec.CSV = ""
		j := m.newJobLocked(spec, fp, idemKey)
		j.cacheHit = true
		j.state = StateDone
		j.result = cached
		rec := Record{Type: RecSubmit, ID: j.id, Seq: j.seq, Spec: &spec, Fingerprint: fp, IdemKey: idemKey, CacheHit: true, Result: cached}
		if err := m.append(rec); err != nil {
			m.cWALAppendErrs.Inc()
		} else {
			m.appends++
		}
		v := j.view()
		close(j.done)
		m.mu.Unlock()
		m.cCacheHits.Inc()
		m.cSubmitted.Inc()
		m.cDone.Inc()
		return v, nil
	}
	if m.nQueued >= m.cfg.Queue {
		m.mu.Unlock()
		m.cCacheMisses.Inc()
		return View{}, ErrQueueFull
	}
	j := m.newJobLocked(spec, fp, idemKey)
	j.rel = rel
	rec := Record{Type: RecSubmit, ID: j.id, Seq: j.seq, Spec: &spec, Fingerprint: fp, IdemKey: idemKey}
	// Persist before exposing: a crash between the append and the
	// enqueue replays the job from the submit record. The store append
	// happens under m.mu so the job is never visible half-registered.
	if err := m.append(rec); err != nil {
		delete(m.jobs, j.id)
		if idemKey != "" {
			delete(m.byIdem, idemKey)
		}
		if n := len(m.order); n > 0 && m.order[n-1] == j {
			m.order = m.order[:n-1]
		}
		m.mu.Unlock()
		return View{}, err
	}
	m.appends++
	j.enqueuedAt = time.Now()
	m.fifo = append(m.fifo, j)
	m.nQueued++
	m.gQueued.Set(int64(m.nQueued))
	v := j.view()
	m.mu.Unlock()
	m.cCacheMisses.Inc()
	m.cSubmitted.Inc()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return v, nil
}

// newJobLocked allocates the next job. Caller holds m.mu.
func (m *Manager) newJobLocked(spec Spec, fp, idemKey string) *job {
	m.seq++
	j := &job{
		id:          fmt.Sprintf("j%06d-%s", m.seq, fp[:8]),
		seq:         m.seq,
		spec:        spec,
		fingerprint: fp,
		idemKey:     idemKey,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	if idemKey != "" {
		m.byIdem[idemKey] = j
	}
	return j
}

// Get returns the job's current view.
func (m *Manager) Get(id string) (View, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// List returns every job in submission order, results omitted (fetch a
// single job for its payload).
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.order))
	for _, j := range m.order {
		v := j.view()
		v.Result = nil
		out = append(out, v)
	}
	return out
}

// Wait blocks until the job reaches a terminal state, d elapses, or ctx
// is cancelled, and returns the view current at that moment.
func (m *Manager) Wait(ctx context.Context, id string, d time.Duration) (View, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return View{}, false
	}
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return m.Get(id)
}

// Cancel requests cancellation: a queued job goes terminal immediately,
// a running job's context is cancelled and the runner records the
// terminal state. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return View{}, ErrUnknownJob
	}
	if j.state.Terminal() {
		v := j.view()
		m.mu.Unlock()
		return v, nil
	}
	j.cancelRequested = true
	if j.state == StateQueued {
		j.state = StateCancelled
		j.reason = cancelReason
		j.rel = nil
		j.spec.CSV = ""
		m.nQueued--
		m.gQueued.Set(int64(m.nQueued))
		close(j.done)
		m.cCancelled.Inc()
	} else if j.cancelRun != nil {
		j.cancelRun()
	}
	v := j.view()
	// The cancel record is what keeps the cancellation across a restart
	// (without it the job replays as queued and re-runs work the client
	// was told is cancelled), so transient store faults are retried like
	// finalize retries the result record.
	m.appendRetried(Record{Type: RecCancel, ID: j.id})
	return v, nil
}

// runner is one executor goroutine: dequeue, run with retries, repeat
// until drain.
func (m *Manager) runner() {
	defer m.runnerWg.Done()
	for {
		j := m.dequeue()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// dequeue pops the next queued job, blocking until one arrives or drain
// begins (nil).
func (m *Manager) dequeue() *job {
	for {
		if m.isDraining() {
			return nil
		}
		m.mu.Lock()
		for len(m.fifo) > 0 {
			j := m.fifo[0]
			m.fifo = m.fifo[1:]
			if j.state != StateQueued {
				continue // cancelled while queued
			}
			// Submit's wake sends are non-blocking into a 1-buffered
			// channel, so two near-simultaneous submissions can coalesce
			// into one signal. Re-arm it when work remains, or an idle
			// runner sleeps while a queued job waits behind this one.
			if len(m.fifo) > 0 {
				select {
				case m.wake <- struct{}{}:
				default:
				}
			}
			m.mu.Unlock()
			return j
		}
		m.mu.Unlock()
		select {
		case <-m.wake:
		case <-m.runCtx.Done():
			return nil
		}
	}
}

// backoff returns the jittered exponential delay for the k-th
// consecutive transient failure (1-based): base·2^(k-1) capped at the
// max, jittered uniformly into [d/2, d].
func (m *Manager) backoff(k int) time.Duration {
	d := m.cfg.RetryBackoff
	for i := 1; i < k && d < m.cfg.RetryMaxBackoff; i++ {
		d *= 2
	}
	if d > m.cfg.RetryMaxBackoff {
		d = m.cfg.RetryMaxBackoff
	}
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return d/2 + time.Duration(m.rng.Int64N(int64(d)/2+1))
}

// action classifies one attempt's outcome.
type action int

const (
	actDone action = iota
	actPartial
	actFailed
	actCancelled
	actRequeue // drain interrupted: back to queued, replayed next boot
	actRetry   // transient: backoff and re-attempt
	actBackoff // backpressure: backoff and re-attempt, no retry budget
)

func (m *Manager) classify(j *job, res Result, runErr error) (action, string) {
	m.mu.Lock()
	cancelled := j.cancelRequested
	m.mu.Unlock()
	if cancelled {
		return actCancelled, cancelReason
	}
	if runErr != nil {
		if m.isDraining() {
			return actRequeue, ""
		}
		var bp Backpressure
		if errors.As(runErr, &bp) {
			return actBackoff, runErr.Error()
		}
		var tr Transient
		if errors.As(runErr, &tr) {
			return actRetry, runErr.Error()
		}
		return actFailed, runErr.Error()
	}
	if res.Partial {
		switch {
		case engine.IsPanicReason(res.Reason):
			return actRetry, res.Reason
		case res.Reason == "cancelled":
			if m.isDraining() {
				return actRequeue, ""
			}
			return actRetry, res.Reason
		default:
			// deadline / max-tasks: deterministic truncation is a valid
			// terminal answer, not a fault.
			return actPartial, res.Reason
		}
	}
	return actDone, ""
}

// runJob executes one job to a terminal state (or requeues it under
// drain), retrying transient failures with jittered backoff.
func (m *Manager) runJob(j *job) {
	stalls := 0 // consecutive backpressure rounds, sizes actBackoff's delay
	for {
		m.mu.Lock()
		if j.state != StateQueued {
			m.mu.Unlock()
			return
		}
		j.state = StateRunning
		j.attempts++
		attempt := j.attempts
		m.nQueued--
		jctx, cancelRun := context.WithCancel(m.runCtx)
		j.cancelRun = cancelRun
		spec := j.spec
		spec.Rel = j.rel
		wait := time.Since(j.enqueuedAt).Seconds()
		m.gQueued.Set(int64(m.nQueued))
		runErr := m.appendUnlock(Record{Type: RecStart, ID: j.id, Attempt: attempt})
		m.gRunning.Add(1)
		m.hQueueSec.Observe(wait)

		var res Result
		if runErr == nil {
			m.bumpAppends(1)
			start := time.Now()
			res, runErr = m.cfg.Run(jctx, spec)
			m.hRunSec.Observe(time.Since(start).Seconds())
		} else {
			m.cWALAppendErrs.Inc()
		}
		cancelRun()
		m.gRunning.Add(-1)

		act, reason := m.classify(j, res, runErr)
		switch act {
		case actDone:
			m.finalize(j, StateDone, &res, "")
			return
		case actPartial:
			m.finalize(j, StatePartial, &res, reason)
			return
		case actFailed:
			m.finalize(j, StateFailed, nil, reason)
			return
		case actCancelled:
			m.finalize(j, StateCancelled, nil, reason)
			return
		case actRequeue:
			m.mu.Lock()
			j.state = StateQueued
			j.enqueuedAt = time.Now()
			m.nQueued++
			m.gQueued.Set(int64(m.nQueued))
			m.mu.Unlock()
			return
		case actRetry:
			m.mu.Lock()
			j.retries++
			k := j.retries
			if k >= m.cfg.MaxAttempts {
				m.mu.Unlock()
				m.finalize(j, StateFailed, nil,
					fmt.Sprintf("retries exhausted after %d attempts: %s", j.attempts, reason))
				return
			}
			m.cRetries.Inc()
			if err := m.appendUnlock(Record{Type: RecRetry, ID: j.id, Attempt: k, Reason: reason}); err != nil {
				m.cWALAppendErrs.Inc()
			} else {
				m.bumpAppends(1)
			}
			if !m.requeueAndSleep(j, k) {
				return
			}
		case actBackoff:
			// Admission saturation: the queue is meant to absorb exactly
			// this load spike, so the attempt burns no retry budget and
			// writes no retry record — the job just waits out the spike
			// with a delay that grows while saturation persists (capped
			// at RetryMaxBackoff).
			stalls++
			m.cBackpressure.Inc()
			if !m.requeueAndSleep(j, stalls) {
				return
			}
		}
	}
}

// requeueAndSleep parks j back in the queued state for the k-th backoff
// window and sleeps it out. Queued, Cancel can reach the job, and a
// drain during the sleep leaves it queued for the next process to
// replay; this runner retains ownership — the job is not on the fifo.
// It reports false when drain began and the runner must exit.
func (m *Manager) requeueAndSleep(j *job, k int) bool {
	m.mu.Lock()
	j.state = StateQueued
	j.enqueuedAt = time.Now()
	m.nQueued++
	m.gQueued.Set(int64(m.nQueued))
	m.mu.Unlock()
	t := time.NewTimer(m.backoff(k))
	select {
	case <-t.C:
	case <-m.runCtx.Done():
	}
	t.Stop()
	// On true, runJob's loop head re-takes the job (state check +
	// nQueued--).
	return !m.isDraining()
}

// finalize records a terminal transition, closes waiters, feeds the
// cache and maybe compacts the store.
func (m *Manager) finalize(j *job, state State, res *Result, reason string) {
	// In-memory state first, record second, as one step to a compaction
	// (appendUnlock): a snapshot that carries the terminal transition
	// is taken after the result record, so the record can neither exist
	// only in the file a compaction rename discards nor follow its own
	// snapshot.
	m.mu.Lock()
	j.state = state
	j.result = res
	j.reason = reason
	j.rel = nil
	j.spec.CSV = ""
	if state == StateDone && res != nil && !res.Partial {
		m.cache[j.spec.CacheKey(j.fingerprint)] = res
	}
	close(j.done)
	// The result record is the durability point: retry the append a few
	// times (transient store faults heal), then fall back to in-memory
	// state — the job re-runs after a crash, which is safe because runs
	// are deterministic.
	m.appendRetried(Record{Type: RecResult, ID: j.id, State: state, Result: res, Reason: reason})
	switch state {
	case StateDone:
		m.cDone.Inc()
	case StatePartial:
		m.cPartial.Inc()
	case StateFailed:
		m.cFailed.Inc()
	case StateCancelled:
		m.cCancelled.Inc()
	}
	m.maybeCompact()
}

// append writes one record through the store under storeMu, so a record
// is never appended between maybeCompact's snapshot and the log swap:
// it either precedes the snapshot (and its state transition, applied
// before any append, is folded into it) or lands in the fresh log.
// Callers may hold m.mu; append never acquires it.
func (m *Manager) append(rec Record) error {
	m.storeMu.Lock()
	defer m.storeMu.Unlock()
	return m.store.Append(rec)
}

// appendUnlock appends the record of a transition the caller has just
// applied under m.mu, and releases m.mu. storeMu is taken before m.mu
// is let go, so a compaction — which snapshots under both — sees either
// neither the transition nor its record, or both: it can never snapshot
// the transition and then have the record land after its snapshot.
func (m *Manager) appendUnlock(rec Record) error {
	m.storeMu.Lock()
	m.mu.Unlock()
	defer m.storeMu.Unlock()
	return m.store.Append(rec)
}

// appendRetried appends rec as appendUnlock does, releasing m.mu, then
// retries transient store faults with the same jittered backoff
// schedule attempts use, and maintains the append/error counters. It
// reports whether the record became durable; on false the in-memory
// state stands alone until the next record for the job (or is lost at
// crash, which replays the job — safe, because runs are deterministic).
func (m *Manager) appendRetried(rec Record) bool {
	err := m.appendUnlock(rec)
	for i := 1; ; i++ {
		if err == nil {
			m.bumpAppends(1)
			return true
		}
		m.cWALAppendErrs.Inc()
		if i > 2 {
			return false
		}
		time.Sleep(m.backoff(i))
		err = m.append(rec)
	}
}

// bumpAppends counts store appends toward the compaction threshold.
func (m *Manager) bumpAppends(n int64) {
	m.mu.Lock()
	m.appends += n
	m.mu.Unlock()
}

// maybeCompact rewrites the store as a minimal snapshot once enough
// records accumulated: one submit record per job plus its current
// attempt/retry counters and terminal result. Replaying the snapshot
// reconstructs exactly the state the full history would.
func (m *Manager) maybeCompact() {
	if m.cfg.CompactEvery < 0 {
		return
	}
	m.mu.Lock()
	if m.appends < m.cfg.CompactEvery {
		m.mu.Unlock()
		return
	}
	// Snapshot and swap under storeMu: an append racing this compaction
	// blocks in append() until the rename finishes and then lands in the
	// fresh log, instead of in the file the rename just discarded. m.mu
	// is released before the (slow) rewrite so only appenders wait.
	m.storeMu.Lock()
	snap := snapshot(m.order)
	m.appends = 0
	m.mu.Unlock()
	err := m.store.Compact(snap)
	m.storeMu.Unlock()
	if err == nil {
		m.cCompactions.Inc()
	}
}

// Drain stops the job service for shutdown: no new submissions, running
// jobs' contexts are cancelled (they re-queue, to be replayed by the
// next process), runners exit, and the store is synced so every queued
// job's submit record is durable before the process exits. Idempotent.
func (m *Manager) Drain() {
	m.drainOnce.Do(func() {
		close(m.draining)
		m.runCancel()
		m.runnerWg.Wait()
		m.store.Sync()
	})
}

// Close drains (if not already) and closes the store.
func (m *Manager) Close() error {
	m.Drain()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	return m.store.Close()
}

// Queued reports how many jobs are currently queued (tests and gauges).
func (m *Manager) Queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nQueued
}
