package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"deptree/internal/engine"
	"deptree/internal/jobs"
)

// maxJobWait caps a GET /v1/jobs/{id}?wait= long-poll so a client cannot
// pin a connection indefinitely.
const maxJobWait = 30 * time.Second

// JobRequest is the body of POST /v1/jobs: one async run of any
// discoverer, validation or repair. Budget knobs resolve exactly as on
// the synchronous endpoints and are baked into the job, so a crash-time
// replay re-runs under the envelope the original admission granted.
type JobRequest struct {
	// Kind selects the runner: "discover", "validate" or "repair".
	Kind string `json:"kind"`
	// Algo is the registry discoverer name (discover only).
	Algo string `json:"algo,omitempty"`
	CSV  string `json:"csv"`
	// FDs is a ";"-separated list of "lhs1,lhs2->rhs" specs (validate).
	FDs string `json:"fds,omitempty"`
	// FD is a single "lhs->rhs" spec (repair).
	FD string `json:"fd,omitempty"`
	// MaxErr is the g3 budget for approximate FDs (tane only).
	MaxErr float64 `json:"maxerr,omitempty"`
	// SampleRows > 0 selects sample-then-verify discovery (discover
	// only, sampling-capable algorithms); SampleSeed seeds the sample.
	SampleRows int   `json:"sample_rows,omitempty"`
	SampleSeed int64 `json:"sample_seed,omitempty"`
	RunKnobs
}

func (q *JobRequest) fields() []field {
	return q.RunKnobs.bind(field{"kind", &q.Kind}, field{"algo", &q.Algo}, field{"csv", &q.CSV},
		field{"fds", &q.FDs}, field{"fd", &q.FD}, field{"maxerr", &q.MaxErr},
		field{"sample_rows", &q.SampleRows}, field{"sample_seed", &q.SampleSeed})
}

// runJob executes one job attempt through the same prepare step,
// admission gate and kind switch the synchronous endpoints use, so a
// job's complete result is byte-identical to the equivalent direct
// request. The attempt reuses the relation parsed at submit and parses
// the CSV only for a job replayed from the WAL. Admission saturation is
// backpressure (the manager re-queues with growing backoff and never
// burns retry budget — the queue exists to absorb exactly that spike);
// malformed specs and run errors are terminal.
func (s *Server) runJob(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
	t, e := s.prepare("job", spec)
	if e != nil {
		return jobs.Result{}, e
	}
	weight := s.adm.clampWeight(int64(spec.Workers))
	if err := s.adm.acquire(ctx, weight); err != nil {
		if errors.Is(err, errSaturated) {
			return jobs.Result{}, jobs.Backpressure{Err: err}
		}
		// Draining or cancelled: the manager classifies and re-queues.
		return jobs.Result{}, err
	}
	defer s.adm.release(weight)

	_, res := t.run(ctx, RunParams{
		Workers: spec.Workers,
		Budget: engine.Budget{
			Timeout:  time.Duration(spec.TimeoutMs) * time.Millisecond,
			MaxTasks: spec.MaxTasks,
		},
		Obs: s.reg,
	})
	return res, nil
}

// jobsOrFail returns the manager or writes the 503 explaining why the
// job subsystem is down (store failed to open/replay).
func (s *Server) jobsOrFail(w http.ResponseWriter) *jobs.Manager {
	if s.jobs != nil {
		return s.jobs
	}
	msg := "job subsystem unavailable"
	if s.jobsErr != nil {
		msg += ": " + s.jobsErr.Error()
	}
	writeAPIError(w, &apiError{status: http.StatusServiceUnavailable, code: "jobs_unavailable", msg: msg})
	return nil
}

func writeJobView(w http.ResponseWriter, status int, v jobs.View) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.jobs.requests").Inc()
	m := s.jobsOrFail(w)
	if m == nil {
		s.reg.Counter("server.jobs.errors").Inc()
		return
	}
	if s.draining.Load() {
		s.fail(w, "jobs", &apiError{status: http.StatusServiceUnavailable, code: "draining",
			msg: "server is draining", retryAfter: s.lat.retryAfterSeconds()})
		return
	}
	var req JobRequest
	if e := s.decodeBody(w, r, &req); e != nil {
		s.fail(w, "jobs", e)
		return
	}
	spec := jobs.Spec{
		Kind: req.Kind, Algo: req.Algo, CSV: req.CSV,
		FDs: req.FDs, FD: req.FD, MaxErr: req.MaxErr,
		SampleRows: req.SampleRows, SampleSeed: req.SampleSeed,
	}
	// Malformed input is a terminal submit-time rejection, never a
	// queued job. The parsed relation rides on the spec, so Submit
	// fingerprints it and the first run reuses it instead of parsing
	// the CSV again.
	t, e := s.prepare("job", spec)
	if e != nil {
		s.fail(w, "jobs", e)
		return
	}
	spec.Rel = t.rel
	bs := s.resolveBudget(req.RunKnobs, r.Header)
	spec.Workers, spec.TimeoutMs, spec.MaxTasks = bs.workers, bs.timeout.Milliseconds(), bs.maxTasks
	v, err := m.Submit(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.fail(w, "jobs", &apiError{status: http.StatusTooManyRequests, code: "jobs_queue_full",
				msg: "job queue full, retry later", retryAfter: s.lat.retryAfterSeconds()})
		case errors.Is(err, jobs.ErrDraining):
			s.fail(w, "jobs", &apiError{status: http.StatusServiceUnavailable, code: "draining",
				msg: "server is draining", retryAfter: s.lat.retryAfterSeconds()})
		default:
			var tr jobs.Transient
			if errors.As(err, &tr) {
				s.fail(w, "jobs", &apiError{status: http.StatusServiceUnavailable, code: "store_unavailable",
					msg: "job store write failed: " + err.Error(), retryAfter: 1})
				return
			}
			s.fail(w, "jobs", &apiError{status: http.StatusBadRequest, code: "invalid_job", msg: err.Error()})
		}
		return
	}
	// A fresh submission is 202 Accepted; an idempotency or cache hit
	// that is already terminal answers 200 with the result inline.
	status := http.StatusAccepted
	if v.State.Terminal() {
		status = http.StatusOK
	}
	writeJobView(w, status, v)
}

// parseWait reads the ?wait= long-poll bound: a Go duration ("2s") or a
// plain number of seconds, clamped to [0, maxJobWait]. Anything
// malformed, negative or zero means no-wait; the clamp happens BEFORE
// the seconds→Duration multiplication so an overflowing bare number
// (e.g. "99999999999999") cannot wrap into a negative or tiny duration.
func parseWait(q string) time.Duration {
	if q == "" {
		return 0
	}
	if secs, err := strconv.Atoi(q); err == nil {
		if secs <= 0 {
			return 0
		}
		if secs > int(maxJobWait/time.Second) {
			return maxJobWait
		}
		return time.Duration(secs) * time.Second
	}
	d, err := time.ParseDuration(q)
	if err != nil || d <= 0 {
		return 0
	}
	if d > maxJobWait {
		d = maxJobWait
	}
	return d
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	m := s.jobsOrFail(w)
	if m == nil {
		return
	}
	id := r.PathValue("id")
	wait := parseWait(r.URL.Query().Get("wait"))
	var v jobs.View
	var ok bool
	if wait > 0 {
		v, ok = m.Wait(r.Context(), id, wait)
	} else {
		v, ok = m.Get(id)
	}
	if !ok {
		writeAPIError(w, &apiError{status: http.StatusNotFound, code: "unknown_job",
			msg: fmt.Sprintf("unknown job %q", id)})
		return
	}
	if r.URL.Query().Get("format") == "text" && v.State.Terminal() && v.Result != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, v.Result.Text())
		return
	}
	writeJobView(w, http.StatusOK, v)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	m := s.jobsOrFail(w)
	if m == nil {
		return
	}
	views := m.List()
	writeJSONBody(w, struct {
		Count int         `json:"count"`
		Jobs  []jobs.View `json:"jobs"`
	}{Count: len(views), Jobs: views})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	m := s.jobsOrFail(w)
	if m == nil {
		return
	}
	id := r.PathValue("id")
	v, err := m.Cancel(id)
	if err != nil {
		writeAPIError(w, &apiError{status: http.StatusNotFound, code: "unknown_job",
			msg: fmt.Sprintf("unknown job %q", id)})
		return
	}
	writeJobView(w, http.StatusOK, v)
}
