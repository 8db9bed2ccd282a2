package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"deptree/internal/deps/fd"
	"deptree/internal/discovery/registry"
	"deptree/internal/jobs"
	"deptree/internal/relation"
)

// apiError is one structured HTTP error: every non-200 the server emits
// carries a machine-readable code and message in a JSON body, so a
// client under shed/breaker pressure can tell "back off" from "fix your
// request" without parsing prose.
type apiError struct {
	status int
	code   string
	msg    string
	// retryAfter, when > 0, is emitted as the Retry-After header and in
	// the body (whole seconds).
	retryAfter int
}

func (e *apiError) Error() string { return fmt.Sprintf("%d %s: %s", e.status, e.code, e.msg) }

// errorBody is the wire form of an apiError.
type errorBody struct {
	Error struct {
		Code       string `json:"code"`
		Message    string `json:"message"`
		RetryAfter int    `json:"retry_after_seconds,omitempty"`
	} `json:"error"`
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	var body errorBody
	body.Error.Code = e.code
	body.Error.Message = e.msg
	body.Error.RetryAfter = e.retryAfter
	w.Header().Set("Content-Type", "application/json")
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(body)
}

// RunKnobs are the per-request execution knobs every POST body accepts.
// Each may instead arrive as a header (X-Deptool-Workers,
// X-Deptool-Timeout-Ms, X-Deptool-Max-Tasks); a nonzero body field wins.
// All values are clamped to the server's configured maxima — a request
// can tighten its budget, never widen it.
type RunKnobs struct {
	// Workers requests a worker count; clamped to the server pool size.
	// Output is identical for every worker count, so this only trades
	// latency against capacity.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs requests a wall-clock budget; clamped to the server's
	// max. On expiry the response is 200 with partial:true and the
	// deterministic prefix.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// MaxTasks requests a task budget; clamped to the server's max.
	MaxTasks int64 `json:"max_tasks,omitempty"`
}

// DiscoverRequest is the body of POST /v1/discover/{algo}.
type DiscoverRequest struct {
	// CSV is the relation, inline: header row then data rows. Column
	// kinds are inferred exactly as the CLI infers them.
	CSV string `json:"csv"`
	// MaxErr is the g3 budget for approximate FDs (tane only).
	MaxErr float64 `json:"maxerr,omitempty"`
	// SampleRows > 0 selects sample-then-verify discovery (tane, fastfd,
	// od, lexod): candidates mined on a deterministic sample, verified on
	// the full relation before emission. 400 sampling_unsupported on
	// discoverers without support.
	SampleRows int `json:"sample_rows,omitempty"`
	// SampleSeed seeds the deterministic sample permutation.
	SampleSeed int64 `json:"sample_seed,omitempty"`
	RunKnobs
}

// ValidateRequest is the body of POST /v1/validate.
type ValidateRequest struct {
	CSV string `json:"csv"`
	// FDs is a ";"-separated list of "lhs1,lhs2->rhs" specs.
	FDs string `json:"fds"`
	RunKnobs
}

// RepairRequest is the body of POST /v1/repair.
type RepairRequest struct {
	CSV string `json:"csv"`
	// FD is a single "lhs->rhs" spec.
	FD string `json:"fd"`
	RunKnobs
}

// decodeBody decodes a JSON request body into dst under the server's
// byte bound. Unknown fields are rejected so a misspelled knob fails
// loudly instead of silently running with defaults.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) *apiError {
	// The JSON envelope around an at-most-MaxInputBytes CSV needs
	// headroom for quoting and the other fields.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxInputBytes+64<<10)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{status: http.StatusRequestEntityTooLarge, code: "input_too_large",
				msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return &apiError{status: http.StatusBadRequest, code: "bad_request",
			msg: "malformed JSON body: " + err.Error()}
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return &apiError{status: http.StatusBadRequest, code: "bad_request",
			msg: "trailing data after JSON body"}
	}
	return nil
}

// task is one prepared run: a checked kind and algorithm, the parsed
// relation and FD rules, and the run options the request fixed.
type task struct {
	kind, algo string
	rel        *relation.Relation
	fds        []fd.FD
	maxErr     float64
	sampleRows int
	sampleSeed int64
}

// prepare is the one input check of the sync endpoints, job submission
// and the job runner, so all of them accept and reject the same
// requests with the same codes. It checks the kind, the algorithm and
// its sampling support, then parses the CSV under the server's ingestion
// limits and the FD specs against its schema. The spec's budget fields
// are ignored: each caller resolves its own.
func (s *Server) prepare(name string, spec jobs.Spec) (task, *apiError) {
	switch spec.Kind {
	case "discover":
		a, ok := registry.Lookup(spec.Algo)
		if !ok {
			return task{}, unknownAlgo(spec.Algo)
		}
		if spec.SampleRows > 0 && !a.Sampling {
			return task{}, &apiError{status: http.StatusBadRequest, code: "sampling_unsupported",
				msg: fmt.Sprintf("algorithm %q does not support sample-then-verify (sample_rows)", spec.Algo)}
		}
	case "validate", "repair":
	default:
		return task{}, &apiError{status: http.StatusBadRequest, code: "invalid_kind",
			msg: fmt.Sprintf("unknown job kind %q (want discover, validate or repair)", spec.Kind)}
	}
	rel, e := s.parseCSV(name, spec.CSV)
	if e != nil {
		return task{}, e
	}
	var err error
	t := task{kind: spec.Kind, algo: spec.Algo, rel: rel,
		maxErr: spec.MaxErr, sampleRows: spec.SampleRows, sampleSeed: spec.SampleSeed}
	switch spec.Kind {
	case "validate":
		t.fds, err = ParseFDList(rel.Schema(), spec.FDs)
	case "repair":
		var f fd.FD
		f, err = ParseFD(rel.Schema(), spec.FD)
		t.fds = []fd.FD{f}
	}
	if err != nil {
		return task{}, &apiError{status: http.StatusBadRequest, code: "invalid_fd", msg: err.Error()}
	}
	return t, nil
}

// unknownAlgo is the 404 for an algorithm name outside the registry.
func unknownAlgo(algo string) *apiError {
	return &apiError{status: http.StatusNotFound, code: "unknown_algo",
		msg: fmt.Sprintf("unknown algorithm %q (want one of %v)", algo, Algorithms())}
}

// parseCSV turns a request's inline CSV into a typed relation under the
// server's ingestion limits, mapping failures to 400/413.
func (s *Server) parseCSV(name, csv string) (*relation.Relation, *apiError) {
	if csv == "" {
		return nil, &apiError{status: http.StatusBadRequest, code: "missing_csv", msg: "csv field is required"}
	}
	rel, err := relation.ReadCSVAuto(name, []byte(csv), s.limits())
	if err != nil {
		return nil, ingestError(err)
	}
	return rel, nil
}

// limits are the server's CSV ingestion limits.
func (s *Server) limits() relation.Limits {
	return relation.Limits{MaxBytes: s.cfg.MaxInputBytes, MaxRows: s.cfg.MaxRows, MaxFieldBytes: s.cfg.MaxFieldBytes}
}

// ingestError maps a CSV read failure to 413 when a limit tripped and to
// 400 otherwise.
func ingestError(err error) *apiError {
	var tooLarge *relation.ErrInputTooLarge
	if errors.As(err, &tooLarge) {
		return &apiError{status: http.StatusRequestEntityTooLarge, code: "input_too_large", msg: err.Error()}
	}
	return &apiError{status: http.StatusBadRequest, code: "invalid_csv", msg: err.Error()}
}

// headerInt reads a nonnegative integer header, 0 when absent or
// unparsable (budget headers fail soft: a garbled header means "use the
// server default", never a wider budget).
func headerInt(h http.Header, key string) int64 {
	v := h.Get(key)
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// budgetSpec is the resolved execution envelope for one request: body
// knobs and headers folded together, clamped by server config.
type budgetSpec struct {
	workers int
	// weight is the admission cost, the effective worker count.
	weight  int64
	timeout time.Duration
	// clientTimeout marks a deadline the client asked for: its expiry is
	// graceful degradation (200 partial), not an engine fault, so it
	// never feeds the circuit breaker.
	clientTimeout bool
	maxTasks      int64
}

// resolveBudget folds the request knobs, the budget headers and the
// server config into the request's execution envelope.
func (s *Server) resolveBudget(k RunKnobs, h http.Header) budgetSpec {
	workers := k.Workers
	if workers <= 0 {
		workers = int(headerInt(h, "X-Deptool-Workers"))
	}
	if workers <= 0 || workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	timeoutMs := k.TimeoutMs
	if timeoutMs <= 0 {
		timeoutMs = headerInt(h, "X-Deptool-Timeout-Ms")
	}
	spec := budgetSpec{
		workers: workers,
		weight:  s.adm.clampWeight(int64(workers)),
		timeout: s.cfg.DefaultTimeout,
	}
	if timeoutMs > 0 {
		req := time.Duration(timeoutMs) * time.Millisecond
		if req <= s.cfg.MaxTimeout {
			spec.timeout = req
			spec.clientTimeout = true
		} else {
			spec.timeout = s.cfg.MaxTimeout
		}
	}
	maxTasks := k.MaxTasks
	if maxTasks <= 0 {
		maxTasks = headerInt(h, "X-Deptool-Max-Tasks")
	}
	spec.maxTasks = s.cfg.MaxTasks
	if maxTasks > 0 && (s.cfg.MaxTasks == 0 || maxTasks < s.cfg.MaxTasks) {
		spec.maxTasks = maxTasks
	}
	return spec
}
