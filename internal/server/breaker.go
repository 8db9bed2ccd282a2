package server

import (
	"math/rand/v2"
	"sync"
	"time"

	"deptree/internal/obs"
)

// breakerState is the classic three-state circuit-breaker machine.
type breakerState int

const (
	// breakerClosed passes requests and counts consecutive faults.
	breakerClosed breakerState = iota
	// breakerOpen rejects requests until the backoff expires.
	breakerOpen
	// breakerHalfOpen lets exactly one probe through; its outcome
	// decides between closing and re-opening with a longer backoff.
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breakerConfig tunes one endpoint's breaker. now and jitter are
// injectable for tests; production uses time.Now and ±25% uniform
// jitter (decorrelating the reopen instants of replicas that tripped on
// the same poisoned workload).
type breakerConfig struct {
	// threshold is the consecutive-fault count that opens a closed
	// breaker.
	threshold int
	// backoff is the first open interval; each failed probe doubles it
	// up to breakerMaxBackoff.
	backoff time.Duration
	now     func() time.Time
	jitter  func(time.Duration) time.Duration
}

// breakerMaxBackoff caps a breaker's open interval.
const breakerMaxBackoff = 30 * time.Second

func (c breakerConfig) withDefaults() breakerConfig {
	if c.threshold <= 0 {
		c.threshold = 5
	}
	if c.backoff <= 0 {
		c.backoff = 500 * time.Millisecond
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.jitter == nil {
		c.jitter = seededJitter(0)
	}
	return c
}

// seededJitter builds the default reopen jitter — uniform in
// [0.75d, 1.25d) — over a private seeded generator (seed 0 =
// time-seeded). Each breaker owns its own generator, so pinning the seed
// makes one endpoint's reopen schedule reproducible regardless of what
// other endpoints (or anything else in the process) draw.
func seededJitter(seed uint64) func(time.Duration) time.Duration {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	var mu sync.Mutex
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	return func(d time.Duration) time.Duration {
		if d <= 0 {
			return d
		}
		mu.Lock()
		defer mu.Unlock()
		return d*3/4 + time.Duration(rng.Int64N(int64(d)/2+1))
	}
}

// breaker shields one endpoint: repeated engine faults (recovered task
// panics, server-imposed deadline blowups) open it, turning a workload
// that reliably kills the pool into fast 503s instead of repeated
// damage. After a jittered exponential backoff a single half-open probe
// decides whether to close again.
type breaker struct {
	cfg breakerConfig

	trips    *obs.Counter
	rejected *obs.Counter

	mu          sync.Mutex
	state       breakerState
	consecutive int
	curBackoff  time.Duration
	openUntil   time.Time
	probing     bool
}

func newBreaker(endpoint string, cfg breakerConfig, reg *obs.Registry) *breaker {
	return &breaker{
		cfg:      cfg.withDefaults(),
		trips:    reg.Counter("server." + endpoint + ".breaker.trips"),
		rejected: reg.Counter("server." + endpoint + ".breaker.rejected"),
	}
}

// breakerOutcome is what one allowed request reports back.
type breakerOutcome int

const (
	// breakerOK: the run completed without an engine fault.
	breakerOK breakerOutcome = iota
	// breakerFault: the run ended in an engine fault (task panic,
	// server-imposed deadline blowup).
	breakerFault
	// breakerSkip: the request never ran (shed by admission, client
	// cancelled while queued); it carries no signal about the engine.
	breakerSkip
)

// allow decides whether a request may proceed. When it may, done is
// non-nil and must be called exactly once with the request's outcome.
// When it may not, retryAfter is how long until the breaker will
// consider a probe.
func (b *breaker) allow() (done func(breakerOutcome), retryAfter time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.now()
	switch b.state {
	case breakerOpen:
		if now.Before(b.openUntil) {
			b.rejected.Inc()
			return nil, b.openUntil.Sub(now), false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return b.doneFunc(true), 0, true
	case breakerHalfOpen:
		if b.probing {
			b.rejected.Inc()
			return nil, b.curBackoff, false
		}
		b.probing = true
		return b.doneFunc(true), 0, true
	default: // closed
		return b.doneFunc(false), 0, true
	}
}

// doneFunc builds the outcome recorder for one allowed request; probe
// marks the half-open probe, whose outcome alone moves the state.
func (b *breaker) doneFunc(probe bool) func(breakerOutcome) {
	var once sync.Once
	return func(out breakerOutcome) {
		once.Do(func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			if probe {
				b.probing = false
				switch out {
				case breakerFault:
					b.reopenLocked(true)
				case breakerOK:
					b.state = breakerClosed
					b.consecutive = 0
					b.curBackoff = 0
				default:
					// The probe never ran; stay half-open so the next
					// request probes again.
				}
				return
			}
			if b.state != breakerClosed || out == breakerSkip {
				// A pre-trip in-flight request finished after the state
				// moved on, or the request never ran; neither drives
				// the machine.
				return
			}
			if out == breakerOK {
				b.consecutive = 0
				return
			}
			b.consecutive++
			if b.consecutive >= b.cfg.threshold {
				b.reopenLocked(false)
			}
		})
	}
}

// reopenLocked trips the breaker: the first trip opens for the base
// backoff, each failed probe doubles the interval up to the cap, and the
// actual reopen instant is jittered.
func (b *breaker) reopenLocked(probeFailed bool) {
	if probeFailed && b.curBackoff > 0 {
		b.curBackoff *= 2
		b.curBackoff = min(b.curBackoff, breakerMaxBackoff)
	} else if b.curBackoff == 0 {
		b.curBackoff = b.cfg.backoff
	}
	b.state = breakerOpen
	b.consecutive = 0
	b.openUntil = b.cfg.now().Add(b.cfg.jitter(b.curBackoff))
	b.trips.Inc()
}

// snapshotState reports the current state for readyz and tests.
func (b *breaker) snapshotState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
