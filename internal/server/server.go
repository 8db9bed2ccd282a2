package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"deptree/internal/discovery/registry"
	"deptree/internal/engine"
	"deptree/internal/jobs"
	"deptree/internal/obs"
)

// Config tunes the server. The zero value gets production-safe defaults
// from withDefaults; every bound exists because discovery requests are
// exactly the long-tailed, memory-hungry workload that takes an
// unbounded server down.
type Config struct {
	// Workers is the engine worker-pool size and the per-request worker
	// cap (default runtime.NumCPU()).
	Workers int
	// MaxConcurrency is the admission semaphore capacity in worker
	// units (default Workers): admitted requests' effective worker
	// counts never sum past it.
	MaxConcurrency int64
	// MaxQueue bounds the admission wait queue in requests; the
	// MaxQueue+1-th concurrent waiter is shed with 429 (default 8).
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the request names
	// none (default 30s); MaxTimeout caps what a request may ask for
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxTasks caps any request's engine task budget (0 = unlimited).
	MaxTasks int64
	// MaxInputBytes bounds a request's CSV payload (default 16 MiB);
	// MaxRows and MaxFieldBytes bound its shape (0 = unlimited).
	MaxInputBytes int64
	MaxRows       int
	MaxFieldBytes int
	// DrainGrace is how long after BeginDrain the listener keeps
	// answering (readyz already 503, admissions already closed) so load
	// balancers stop routing before the socket closes (default 200ms).
	DrainGrace time.Duration
	// DrainTimeout bounds how long shutdown waits for in-flight
	// requests before cancelling their engine contexts (default 10s).
	DrainTimeout time.Duration
	// BreakerThreshold consecutive engine faults open an endpoint's
	// breaker (default 5); BreakerBackoff is the first open interval
	// (default 500ms), doubling per failed probe up to
	// BreakerMaxBackoff (default 30s).
	BreakerThreshold  int
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// BreakerJitterSeed seeds the breakers' reopen jitter (0 =
	// time-seeded). Chaos and recovery tests pin it so breaker reopen
	// schedules are deterministic.
	BreakerJitterSeed uint64
	// JobStore persists the async job queue (nil = a fresh in-memory
	// store; `deptool serve -jobs-dir` passes a WAL store so jobs
	// survive crashes).
	JobStore jobs.Store
	// JobQueue bounds the queued-job backlog (default 64); JobRunners
	// is the number of concurrent job executors (default 2); each
	// executing job still passes the admission semaphore, so runners
	// bound queue drain, not engine load.
	JobQueue   int
	JobRunners int
	// JobMaxAttempts / JobRetryBackoff / JobJitterSeed tune the
	// transient-failure retry loop (see jobs.Config).
	JobMaxAttempts  int
	JobRetryBackoff time.Duration
	JobJitterSeed   uint64
	// StreamMaxSessions caps live streaming sessions (default 16):
	// resident partition state per session is what the cap bounds, so
	// creations past it are shed with 429 until the server restarts.
	StreamMaxSessions int
	// StreamWALPath persists streaming sessions ("" = memory only):
	// creations and accepted batches are logged and fsynced before the
	// response and replayed at startup, so a stream session survives a
	// restart with identical fingerprint and ruleset.
	StreamWALPath string
	// WALQuarantine opts WAL replay into quarantine mode: mid-log
	// corruption is sidecarred to <wal>.quarantine and the verified
	// prefix stays live, instead of the default refuse-to-start. The
	// jobs store built by the CLI honours it too (see cmd/deptool).
	WALQuarantine bool
	// Obs receives every server and engine metric (nil = no-op).
	Obs *obs.Registry

	// breakerNow/breakerJitter are test seams for the breaker clock.
	breakerNow    func() time.Time
	breakerJitter func(time.Duration) time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = int64(c.Workers)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxInputBytes <= 0 {
		c.MaxInputBytes = 16 << 20
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 200 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.StreamMaxSessions <= 0 {
		c.StreamMaxSessions = 16
	}
	return c
}

// endpoints are the guarded POST endpoints, each with its own breaker.
func endpoints() []string {
	eps := []string{"validate", "repair"}
	for _, a := range Algorithms() {
		eps = append(eps, "discover."+a)
	}
	eps = append(eps, streamEndpoints()...)
	return eps
}

// Server is the hardened discovery service. Construct with New, serve
// either via Run (owns listener lifecycle and drain) or by mounting
// Handler on an http.Server.
type Server struct {
	cfg Config
	reg *obs.Registry
	adm *admission
	lat *latencyWindow

	breakers map[string]*breaker
	handler  http.Handler

	jobs    *jobs.Manager
	jobsErr error

	streams *streamTable

	draining   atomic.Bool
	baseCtx    context.Context
	cancelBase context.CancelFunc

	inflight *obs.Gauge
	panics   *obs.Counter
}

// New builds a Server from the config. The registry in cfg.Obs observes
// every request (per-endpoint request/error counters and latency
// histograms, in-flight gauge, shed and breaker-trip counters) and is
// served on GET /metrics in Prometheus text exposition.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		adm:      newAdmission(cfg.MaxConcurrency, cfg.MaxQueue, reg),
		lat:      &latencyWindow{},
		breakers: make(map[string]*breaker),
		inflight: reg.Gauge("server.inflight"),
		panics:   reg.Counter("server.handler.panics"),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	bcfg := breakerConfig{
		threshold:  cfg.BreakerThreshold,
		backoff:    cfg.BreakerBackoff,
		maxBackoff: cfg.BreakerMaxBackoff,
		jitterSeed: cfg.BreakerJitterSeed,
		now:        cfg.breakerNow,
		jitter:     cfg.breakerJitter,
	}
	for _, ep := range endpoints() {
		// Registered up front so a snapshot lists every endpoint's
		// metrics before traffic arrives.
		reg.Counter("server." + ep + ".requests")
		reg.Counter("server." + ep + ".errors")
		reg.Histogram("server." + ep + ".seconds")
		s.breakers[ep] = newBreaker(ep, bcfg, reg)
	}

	jm, jerr := jobs.New(jobs.Config{
		Store:        cfg.JobStore,
		Run:          s.runJob,
		Queue:        cfg.JobQueue,
		Runners:      cfg.JobRunners,
		MaxAttempts:  cfg.JobMaxAttempts,
		RetryBackoff: cfg.JobRetryBackoff,
		JitterSeed:   cfg.JobJitterSeed,
		Obs:          reg,
	})
	if jerr != nil {
		// A corrupt-beyond-replay store must not take the synchronous
		// endpoints down: the job routes answer 503 and JobsErr surfaces
		// the cause to the CLI.
		s.jobsErr = jerr
	} else {
		s.jobs = jm
	}

	s.streams = newStreamTable(cfg.StreamMaxSessions, reg)
	if cfg.StreamWALPath != "" {
		if err := s.openStreamWAL(cfg.StreamWALPath); err != nil {
			// Same posture as a corrupt job store: the stream routes
			// answer 503, everything else stays up.
			s.streams.fail(err)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/discover/{algo}", s.handleDiscover)
	mux.HandleFunc("POST /v1/stream/{algo}", s.handleStream)
	mux.HandleFunc("POST /v1/validate", s.handleValidate)
	mux.HandleFunc("POST /v1/repair", s.handleRepair)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.handler = s.recoverPanics(mux)
	return s
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Draining reports whether drain has begun (readyz is then 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// BeginDrain flips the server into drain mode: readyz answers 503, the
// job manager drains (running jobs re-queue, their state already durable
// in the store), the admission queue is flushed and closed, and new work
// is rejected with 503. Idempotent. In-flight requests keep running.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.reg.Counter("server.drain.begun").Inc()
		if s.jobs != nil {
			// Drain jobs before the admission queue: runners blocked in
			// admission unblock via their cancelled run contexts and
			// re-queue, so every queued and running job survives in the
			// store for the next process to replay.
			s.jobs.Drain()
		}
		s.adm.drain()
	}
}

// Close releases the job subsystem: drains its runners and closes the
// store (syncing the WAL). Run calls it as part of the drain sequence;
// tests that mount Handler directly call it in cleanup.
func (s *Server) Close() error {
	var err error
	if s.jobs != nil {
		err = s.jobs.Close()
	}
	if werr := s.streams.closeWAL(); err == nil {
		err = werr
	}
	return err
}

// Jobs exposes the job manager (nil when the store failed to open) for
// the CLI and tests.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// JobsErr reports why the job subsystem is unavailable, nil when it is
// healthy.
func (s *Server) JobsErr() error { return s.jobsErr }

// StreamErr reports why the stream subsystem is unavailable (WAL open,
// replay or append failure), nil when it is healthy.
func (s *Server) StreamErr() error { return s.streams.unavailable() }

// Run serves on ln until ctx is cancelled (the SIGTERM path), then
// executes the drain sequence: BeginDrain, a DrainGrace beat for load
// balancers to observe the 503 readyz, an http.Server.Shutdown bounded
// by DrainTimeout for in-flight requests, and finally cancellation of
// the remaining engine contexts plus a forced close. It returns nil on
// a clean drain, the drain error when the deadline fired, or the
// listener error if serving failed first.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	defer s.Close()
	hs := &http.Server{
		Handler: s.handler,
		BaseContext: func(net.Listener) context.Context {
			return s.baseCtx
		},
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		s.cancelBase()
		return err
	case <-ctx.Done():
	}

	s.BeginDrain()
	time.Sleep(s.cfg.DrainGrace)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	// Past the drain deadline: cancel the engine contexts of whatever is
	// still in flight so their pools unwind, then force-close.
	s.cancelBase()
	if err != nil {
		hs.Close()
	}
	<-serveErr // http.ErrServerClosed
	if err != nil {
		return fmt.Errorf("server: drain deadline exceeded: %w", err)
	}
	return nil
}

// recoverPanics is the outermost safety net: a panic escaping a handler
// (not an engine task — those are already converted to PanicError by
// the pool) becomes a 500 with a structured body instead of a killed
// connection.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
				writeAPIError(w, &apiError{status: http.StatusInternalServerError,
					code: "internal_panic", msg: fmt.Sprintf("handler panic: %v", v)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if err := s.streams.unavailable(); err != nil {
		// A poisoned stream WAL means acknowledged durability is broken
		// for the stream routes: stop routing traffic here until the
		// operator intervenes (fsck, restart).
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "stream wal poisoned: %v\n", err)
		return
	}
	io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// response is one successful run's reply, renderable as JSON (default)
// or, with ?format=text, as the byte-identical CLI output.
type response interface {
	writeJSON(w http.ResponseWriter)
	writeText(w http.ResponseWriter)
}

func writeResponse(w http.ResponseWriter, r *http.Request, resp response) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		resp.writeText(w)
		return
	}
	resp.writeJSON(w)
}

func writeJSONBody(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// discoverResponse is the JSON reply of POST /v1/discover/{algo}.
type discoverResponse struct {
	Algo    string   `json:"algo"`
	Count   int      `json:"count"`
	Results []string `json:"results"`
	Partial bool     `json:"partial"`
	Reason  string   `json:"reason,omitempty"`

	out DiscoverOutput
}

func (d discoverResponse) writeJSON(w http.ResponseWriter) { writeJSONBody(w, d) }
func (d discoverResponse) writeText(w http.ResponseWriter) { io.WriteString(w, d.out.Text()) }

// validateResponse is the JSON reply of POST /v1/validate.
type validateResponse struct {
	Report  string `json:"report"`
	Checked int    `json:"checked"`
	Rules   int    `json:"rules"`
	Partial bool   `json:"partial"`
	Reason  string `json:"reason,omitempty"`

	out ValidateOutput
}

func (v validateResponse) writeJSON(w http.ResponseWriter) { writeJSONBody(w, v) }
func (v validateResponse) writeText(w http.ResponseWriter) { io.WriteString(w, v.out.Text()) }

// repairResponse is the JSON reply of POST /v1/repair.
type repairResponse struct {
	CSV     string   `json:"csv"`
	Changes []string `json:"changes"`
	Partial bool     `json:"partial"`
	Reason  string   `json:"reason,omitempty"`
}

func (rr repairResponse) writeJSON(w http.ResponseWriter) { writeJSONBody(w, rr) }
func (rr repairResponse) writeText(w http.ResponseWriter) {
	io.WriteString(w, rr.CSV)
	if rr.Partial {
		fmt.Fprintf(w, "PARTIAL: %s\n", rr.Reason)
	}
}

// engineFault classifies a run outcome for the circuit breaker: task
// panics always count; deadline expiry counts only when the deadline
// was server-imposed (a client that asked for a tight budget and got a
// partial result is the graceful-degradation path, not a fault).
func engineFault(stop engine.Stop, clientTimeout bool) bool {
	return engine.IsPanicReason(stop.Reason) || engine.IsDeadlineReason(stop.Reason) && !clientTimeout
}

// outcomeError maps a degraded run to its HTTP error, or nil for the
// 200 path (complete, or budget-truncated partial).
func outcomeError(stop engine.Stop) *apiError {
	switch {
	case engine.IsPanicReason(stop.Reason):
		return &apiError{status: http.StatusInternalServerError, code: "engine_panic",
			msg: "engine task panicked: " + stop.Reason}
	case stop.Reason == "cancelled":
		return &apiError{status: http.StatusServiceUnavailable, code: "cancelled",
			msg: "run cancelled before completion (server draining or client gone)"}
	default:
		return nil
	}
}

// fail counts an error of the endpoint and writes it.
func (s *Server) fail(w http.ResponseWriter, endpoint string, e *apiError) {
	s.reg.Counter("server." + endpoint + ".errors").Inc()
	writeAPIError(w, e)
}

// runFunc is a checked and parsed request, ready to run under admission:
// it returns the reply with the run's engine.Stop, or a typed error.
type runFunc func(ctx context.Context, p RunParams) (response, engine.Stop, *apiError)

// serve is the one request pipeline of the sync and stream endpoints:
// decode the body into req, check and parse it, then run the result
// through guarded. Checking and parsing come before admission, so
// malformed input never takes an admission slot or feeds the breaker.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, endpoint string, req request,
	check func() (runFunc, *apiError)) {

	if e := s.decodeBody(w, r, req); e != nil {
		s.fail(w, endpoint, e)
		return
	}
	run, e := check()
	if e != nil {
		s.fail(w, endpoint, e)
		return
	}
	s.guarded(w, r, endpoint, s.resolveBudget(req.knobs(), r.Header), run)
}

// guarded runs fn through the full hardening pipeline for one endpoint:
// drain check, circuit breaker, weighted admission, metrics, fault
// accounting. fn's context is cancelled on server drain past the
// deadline.
func (s *Server) guarded(w http.ResponseWriter, r *http.Request, endpoint string, spec budgetSpec, fn runFunc) {
	s.reg.Counter("server." + endpoint + ".requests").Inc()
	latency := s.reg.Histogram("server." + endpoint + ".seconds")

	if s.draining.Load() {
		s.fail(w, endpoint, &apiError{status: http.StatusServiceUnavailable, code: "draining",
			msg: "server is draining", retryAfter: s.lat.retryAfterSeconds()})
		return
	}
	br := s.breakers[endpoint]
	done, retryIn, ok := br.allow()
	if !ok {
		after := int(retryIn/time.Second) + 1
		s.fail(w, endpoint, &apiError{status: http.StatusServiceUnavailable, code: "breaker_open",
			msg: fmt.Sprintf("endpoint %s circuit breaker is open", endpoint), retryAfter: after})
		return
	}

	// Tie the request to the server's base context so drain past the
	// deadline cancels the engine run even when the handler is mounted
	// outside Run (tests, embedding).
	ctx, cancelReq := context.WithCancel(r.Context())
	defer cancelReq()
	stop := context.AfterFunc(s.baseCtx, cancelReq)
	defer stop()

	if err := s.adm.acquire(ctx, spec.weight); err != nil {
		done(breakerSkip) // shed before running: no engine outcome to record
		switch err {
		case errSaturated:
			s.fail(w, endpoint, &apiError{status: http.StatusTooManyRequests, code: "saturated",
				msg: "admission queue full, retry later", retryAfter: s.lat.retryAfterSeconds()})
		case errDraining:
			s.fail(w, endpoint, &apiError{status: http.StatusServiceUnavailable, code: "draining",
				msg: "server is draining", retryAfter: s.lat.retryAfterSeconds()})
		default: // client gave up while queued
			s.fail(w, endpoint, &apiError{status: 499, code: "client_cancelled", msg: "client cancelled while queued"})
		}
		return
	}
	defer s.adm.release(spec.weight)

	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	resp, outcome, apiErr := fn(ctx, RunParams{
		Workers: spec.workers,
		Budget:  engine.Budget{Timeout: spec.timeout, MaxTasks: spec.maxTasks},
		Obs:     s.reg,
	})
	elapsed := time.Since(start).Seconds()
	latency.Observe(elapsed)
	s.lat.observe(elapsed)

	if engineFault(outcome, spec.clientTimeout) {
		done(breakerFault)
	} else {
		done(breakerOK)
	}
	if apiErr == nil {
		apiErr = outcomeError(outcome)
	}
	if apiErr != nil {
		s.fail(w, endpoint, apiErr)
		return
	}
	writeResponse(w, r, resp)
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	algo := r.PathValue("algo")
	if _, ok := registry.Lookup(algo); !ok {
		s.reg.Counter("server.discover.unknown_algo").Inc()
		writeAPIError(w, unknownAlgo(algo))
		return
	}
	var req DiscoverRequest
	s.serveSync(w, r, "discover."+algo, &req, func() jobs.Spec {
		return jobs.Spec{Kind: "discover", Algo: algo, CSV: req.CSV, MaxErr: req.MaxErr,
			SampleRows: req.SampleRows, SampleSeed: req.SampleSeed}
	})
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req ValidateRequest
	s.serveSync(w, r, "validate", &req, func() jobs.Spec {
		return jobs.Spec{Kind: "validate", CSV: req.CSV, FDs: req.FDs}
	})
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req RepairRequest
	s.serveSync(w, r, "repair", &req, func() jobs.Spec {
		return jobs.Spec{Kind: "repair", CSV: req.CSV, FD: req.FD}
	})
}

// serveSync serves a synchronous endpoint through serve: its check step
// is prepare, over the spec built from the decoded body.
func (s *Server) serveSync(w http.ResponseWriter, r *http.Request, endpoint string, req request, spec func() jobs.Spec) {
	s.serve(w, r, endpoint, req, func() (runFunc, *apiError) {
		t, e := s.prepare("request", spec())
		return t.reply, e
	})
}

// reply runs t for a sync reply. prepare has checked the algorithm, so
// the run cannot fail.
func (t task) reply(ctx context.Context, p RunParams) (response, engine.Stop, *apiError) {
	resp, res := t.run(ctx, p)
	return resp, engine.Stop{Partial: res.Partial, Reason: res.Reason}, nil
}

// run executes a prepared task under the execution knobs in p and
// returns its output in both served forms: the sync reply and the job
// result. It is the one kind switch behind the sync endpoints and the
// job runner. prepare has looked the algorithm up and checked its
// sampling support, so a discover run calls it directly.
func (t task) run(ctx context.Context, p RunParams) (response, jobs.Result) {
	p.MaxErr, p.SampleRows, p.SampleSeed = t.maxErr, t.sampleRows, t.sampleSeed
	switch t.kind {
	case "discover":
		out := t.algo.Run(ctx, t.rel, p)
		results := out.Lines
		if results == nil {
			results = []string{}
		}
		return discoverResponse{
				Algo: t.algo.Name, Count: len(out.Lines), Results: results,
				Partial: out.Partial, Reason: out.Reason, out: out,
			},
			jobs.Result{Lines: out.Lines, Partial: out.Partial, Reason: out.Reason}
	case "validate":
		out := RunValidate(ctx, t.rel, t.fds, p)
		return validateResponse{
				Report: out.Report, Checked: out.Completed, Rules: out.Rules,
				Partial: out.Partial, Reason: out.Reason, out: out,
			},
			jobs.Result{Report: out.Text(), Partial: out.Partial, Reason: out.Reason}
	default: // "repair"
		out, _ := RunRepair(ctx, t.rel, t.fds, p) // its error is always nil
		changes := out.Changes
		if changes == nil {
			changes = []string{}
		}
		return repairResponse{CSV: out.CSV, Changes: changes, Partial: out.Partial, Reason: out.Reason},
			jobs.Result{CSV: out.CSV, Changes: out.Changes, Partial: out.Partial, Reason: out.Reason}
	}
}
