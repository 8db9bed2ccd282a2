package server

import (
	"testing"
	"time"

	"deptree/internal/obs"
)

// fakeClock is a manually advanced breaker clock; tests also pin jitter
// to the identity so open intervals are exact.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                { return c.t }
func (c *fakeClock) advance(d time.Duration)       { c.t = c.t.Add(d) }
func identityJitter(d time.Duration) time.Duration { return d }

func newTestBreaker(threshold int, backoff time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker("test", breakerConfig{
		threshold: threshold,
		backoff:   backoff,
		now:       clk.now,
		jitter:    identityJitter,
	}, obs.New())
	return b, clk
}

// mustAllow asserts the breaker admits a request and returns its done
// callback.
func mustAllow(t *testing.T, b *breaker) func(breakerOutcome) {
	t.Helper()
	done, _, ok := b.allow()
	if !ok {
		t.Fatalf("breaker rejected in state %v", b.snapshotState())
	}
	return done
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		mustAllow(t, b)(breakerFault)
	}
	if got := b.snapshotState(); got != breakerClosed {
		t.Fatalf("state after 2 faults = %v, want closed", got)
	}
	mustAllow(t, b)(breakerFault)
	if got := b.snapshotState(); got != breakerOpen {
		t.Fatalf("state after 3 faults = %v, want open", got)
	}
	if _, retry, ok := b.allow(); ok || retry != time.Second {
		t.Fatalf("open breaker: ok=%v retry=%v, want rejected with 1s", ok, retry)
	}
	if got := b.trips.Value(); got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	mustAllow(t, b)(breakerFault)
	mustAllow(t, b)(breakerFault)
	mustAllow(t, b)(breakerOK)
	mustAllow(t, b)(breakerFault)
	mustAllow(t, b)(breakerFault)
	if got := b.snapshotState(); got != breakerClosed {
		t.Fatalf("state = %v, want closed (OK reset the streak)", got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	mustAllow(t, b)(breakerFault) // trips immediately
	clk.advance(time.Second)
	probeDone := mustAllow(t, b) // backoff expired: half-open probe
	if got := b.snapshotState(); got != breakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	// Only one probe at a time: a concurrent request is rejected.
	if _, _, ok := b.allow(); ok {
		t.Fatal("second request admitted while probe in flight")
	}
	probeDone(breakerOK)
	if got := b.snapshotState(); got != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	// A recovered breaker starts a fresh fault streak from the base
	// backoff.
	mustAllow(t, b)(breakerFault)
	if _, retry, ok := b.allow(); ok || retry != time.Second {
		t.Fatalf("re-trip: ok=%v retry=%v, want rejected with base 1s backoff", ok, retry)
	}
}

func TestBreakerFailedProbeDoublesBackoff(t *testing.T) {
	b, clk := newTestBreaker(1, 10*time.Second)
	mustAllow(t, b)(breakerFault)
	wantBackoffs := []time.Duration{20 * time.Second, breakerMaxBackoff, breakerMaxBackoff} // doubles, then caps
	cur := 10 * time.Second
	for i, want := range wantBackoffs {
		clk.advance(cur)
		mustAllow(t, b)(breakerFault) // failed probe
		_, retry, ok := b.allow()
		if ok {
			t.Fatalf("round %d: breaker admitted right after failed probe", i)
		}
		if retry != want {
			t.Fatalf("round %d: retry = %v, want %v", i, retry, want)
		}
		cur = want
	}
}

func TestBreakerSkippedProbeStaysHalfOpen(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	mustAllow(t, b)(breakerFault)
	clk.advance(time.Second)
	probeDone := mustAllow(t, b)
	probeDone(breakerSkip) // probe never ran (shed by admission)
	if got := b.snapshotState(); got != breakerHalfOpen {
		t.Fatalf("state after skipped probe = %v, want half-open", got)
	}
	// The next request probes again immediately — no new backoff.
	probeDone = mustAllow(t, b)
	probeDone(breakerOK)
	if got := b.snapshotState(); got != breakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerSkipDoesNotResetClosedStreak(t *testing.T) {
	b, _ := newTestBreaker(2, time.Second)
	mustAllow(t, b)(breakerFault)
	mustAllow(t, b)(breakerSkip) // shed request carries no engine signal
	mustAllow(t, b)(breakerFault)
	if got := b.snapshotState(); got != breakerOpen {
		t.Fatalf("state = %v, want open (skip must not reset the streak)", got)
	}
}

func TestBreakerDoneIdempotent(t *testing.T) {
	b, _ := newTestBreaker(2, time.Second)
	done := mustAllow(t, b)
	done(breakerFault)
	done(breakerFault) // second call must be a no-op
	if got := b.snapshotState(); got != breakerClosed {
		t.Fatalf("state = %v, want closed (one fault counted once)", got)
	}
}

func TestBreakerLateDoneAfterTripIgnored(t *testing.T) {
	b, _ := newTestBreaker(1, time.Second)
	slow := mustAllow(t, b) // in flight before the trip
	mustAllow(t, b)(breakerFault)
	if got := b.snapshotState(); got != breakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	slow(breakerOK) // pre-trip request finishing late must not close it
	if got := b.snapshotState(); got != breakerOpen {
		t.Fatalf("state after late OK = %v, want still open", got)
	}
}

// TestSeededJitterDeterministic pins the breaker's default jitter to a
// private seeded generator: the same seed replays the same reopen
// schedule (what the chaos/recovery suites rely on), every draw stays in
// the documented [0.75d, 1.25d] band, and the global math/rand state is
// never consulted.
func TestSeededJitterDeterministic(t *testing.T) {
	a := seededJitter(7)
	b := seededJitter(7)
	d := 400 * time.Millisecond
	for i := 0; i < 32; i++ {
		ja, jb := a(d), b(d)
		if ja != jb {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, ja, jb)
		}
		if ja < d*3/4 || ja > d*5/4 {
			t.Fatalf("draw %d: jitter %v outside [0.75d, 1.25d] for d=%v", i, ja, d)
		}
	}
	if a(0) != 0 {
		t.Fatal("jitter of 0 must be 0")
	}

	// Distinct seeds must not share a schedule.
	c := seededJitter(8)
	same := true
	base := seededJitter(7)
	for i := 0; i < 16; i++ {
		if base(d) != c(d) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical jitter schedules")
	}
}
