package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/server"
)

// outcome classifies one finished op.
type outcome int

const (
	opOK   outcome = iota
	opShed         // 429 or 503: the server refused the work
	opErr          // anything else: 4xx/5xx, partial, timeout, failed check
)

// result is what an op reports back to the loop that timed it.
type result struct {
	out outcome
	err error // detail for opShed and opErr
}

func ok() result { return result{out: opOK} }

func failed(format string, a ...any) result {
	return result{out: opErr, err: fmt.Errorf(format, a...)}
}

// sample is one timed op of the latency phase. lat runs from sending the
// request to its last response byte; gap is the generator's own time
// between the end of the previous op and this op's send, which no latency
// is charged.
type sample struct {
	lat, gap time.Duration
	res      result
}

// latencyPhase runs ops back to back on one client from op 0, one window
// of period ops at a time, so no op ever waits behind another. It starts
// windows while d has not passed and at least until minWindows have run,
// and stops before a window would reach op limit. after(k) is called when
// window k has ended, with no op in flight; its time is not charged to any
// op.
func latencyPhase(period, limit int, d time.Duration, do func(i int) result, after func(k int)) [][]sample {
	var windows [][]sample
	start := time.Now()
	for k := 0; (k+1)*period <= limit && (k < minWindows || time.Since(start) < d); k++ {
		win := make([]sample, period)
		prev := time.Now()
		for j := range win {
			sent := time.Now()
			r := do(k*period + j)
			end := time.Now()
			win[j] = sample{lat: end.Sub(sent), gap: sent.Sub(prev), res: r}
			prev = end
		}
		windows = append(windows, win)
		if after != nil {
			after(k)
		}
	}
	return windows
}

// finish is one finished throughput-phase op: its result and when it
// ended, counted from the start of the phase.
type finish struct {
	res result
	at  time.Duration
}

// throughputPhase runs clients workers that each take the next op index
// from first upward and issue it as soon as their previous op finished.
// They take new ops while d has not passed and at least until minWindows
// windows of period ops were taken, and never op limit or later. It
// returns the finished ops in the order they ended.
func throughputPhase(clients, period int, d time.Duration, first, limit int, do func(i int) result) []finish {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var finished []finish
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= limit || (i-first >= minWindows*period && time.Since(start) >= d) {
					return
				}
				r := do(i)
				mu.Lock()
				finished = append(finished, finish{res: r, at: time.Since(start)})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return finished
}

// throughput cuts the finished ops, in the order they ended, into windows
// of period ops and returns the median over the complete windows of each
// window's rate (period ops over the time from the previous window's last
// end to its own), with every window's rate. Each window is one period of
// the op sequence, so every window carries the same work, and a stall or a
// slow stretch of the machine that covers fewer than half the windows
// leaves the median where the rest of the phase put it.
func throughput(finished []finish, period int) (float64, []float64) {
	var rates []float64
	var prev time.Duration
	for k := period; k <= len(finished); k += period {
		at := finished[k-1].at
		rates = append(rates, float64(period)/(at-prev).Seconds())
		prev = at
	}
	return median(rates), rates
}

// client is the generator's HTTP side: at most nproc connections to the
// one server, so an open-loop backlog queues in the client as it would
// in front of a real deployment with a fixed connection pool.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// classify maps a transport error or a non-200 status to an op result;
// ok is returned only for 200.
func classify(status int, body []byte, err error) result {
	switch {
	case err != nil:
		return result{out: opErr, err: err}
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return result{out: opShed, err: fmt.Errorf("status %d: %.200s", status, body)}
	case status != http.StatusOK:
		return failed("status %d: %.200s", status, body)
	}
	return ok()
}

// instance is one booted server: the config shape `deptool serve` builds
// (obs.New registry, Workers = nproc, and with a jobs dir the job WAL
// plus the stream WAL beside it), served on a loopback listener.
type instance struct {
	srv    *server.Server
	reg    *obs.Registry
	store  *jobs.WALStore // nil without a jobs dir
	dir    string
	url    string
	cancel context.CancelFunc
	done   chan error
}

// boot starts a server over dir ("" = memory only) and returns it with
// its set-up time: from opening the stores and server.New to the first
// 200 from /readyz, so WAL replay is included.
func boot(dir string) (*instance, time.Duration, error) {
	start := time.Now()
	in := &instance{reg: obs.New(), dir: dir}
	cfg := server.Config{
		Workers: runtime.NumCPU(),
		Obs:     in.reg,
		// Teardown only: shorten the load-balancer grace between
		// set-up repetitions. Nothing timed runs during a drain.
		DrainGrace: time.Millisecond,
	}
	if dir != "" {
		store, err := jobs.OpenWAL(filepath.Join(dir, "jobs.wal"), jobs.WALOptions{})
		if err != nil {
			return nil, 0, fmt.Errorf("open job WAL: %w", err)
		}
		in.store = store
		cfg.JobStore = store
		cfg.StreamWALPath = filepath.Join(dir, "stream.wal")
	}
	in.srv = server.New(cfg)
	if err := errors.Join(in.srv.JobsErr(), in.srv.StreamErr()); err != nil {
		in.srv.Close()
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.srv.Close()
		return nil, 0, err
	}
	in.url = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	in.cancel = cancel
	in.done = make(chan error, 1)
	go func() { in.done <- in.srv.Run(ctx, ln) }()

	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(in.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return in, time.Since(start), nil
			}
		}
		if time.Since(start) > time.Minute {
			in.stop()
			return nil, 0, fmt.Errorf("boot: /readyz not ready after a minute (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server and waits for Run to return (which closes the
// job store and the stream WAL).
func (in *instance) stop() error {
	in.cancel()
	return <-in.done
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
