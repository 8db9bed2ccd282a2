package engine

// pollStride is the number of steps of a long loop between two polls of
// its pool, for every quadratic or exponential loop of the discoverers.
const pollStride = 1024

// Poller counts the steps of one long loop and polls the loop's pool on
// the first step and every pollStride steps after; with a nil pool it
// never stops. Each loop (each task) keeps its own.
type Poller struct {
	pool *Pool
	left int
}

// NewPoller returns a Poller of pool, which may be nil.
func NewPoller(pool *Pool) Poller { return Poller{pool: pool} }

// Err counts steps steps and, when a poll is due, returns the pool's
// error (nil between polls), for loops on the submitting goroutine. A
// loop may count a run of steps it is about to take (the pairs of one
// row) in one call, and then polls at most one run late.
func (p *Poller) Err(steps int) error {
	if p.left -= steps; p.left > 0 {
		return nil
	}
	return p.poll()
}

// Tick counts one step and, once a poll finds the pool stopped, unwinds
// the calling task through Abort, for loops inside a pool task.
func (p *Poller) Tick() {
	if p.left--; p.left > 0 {
		return
	}
	p.abort()
}

// poll and abort are kept out of line so that Err and Tick, called on
// every step, stay inlinable.
//
//go:noinline
func (p *Poller) poll() error {
	p.left = pollStride
	if p.pool == nil {
		return nil
	}
	return p.pool.Err()
}

//go:noinline
func (p *Poller) abort() {
	if err := p.poll(); err != nil {
		Abort(err)
	}
}
