// Streaming discovery over HTTP: POST /v1/stream/{algo} is a
// chunked-ingest session protocol. The first request (no "session"
// field) creates a session from its CSV — schema inferred exactly as the
// one-shot endpoints infer it — and returns the session id; follow-ups
// name the session and append their CSV rows (header repeated, parsed
// with the session's kinds), each answered with the refreshed ruleset,
// its diff, and the chained relation fingerprint.
//
// Sessions run through the request pipeline of the synchronous
// endpoints (serve: decode, check and parse, then guarded) plus their
// own admission control: a fixed session-table cap sheds creations with
// 429 once the server holds too much resident partition state, and a
// creation takes a slot only once its first batch answers 200. With a
// WAL configured (deptool serve -jobs-dir),
// creations and accepted batches are logged and fsynced before the
// response, and replayed through fresh sessions at startup — a stream
// survives a server restart with an identical fingerprint and ruleset.
// A WAL write failure poisons the whole subsystem (503s) rather than
// letting live state silently diverge from what a restart would rebuild.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"deptree/internal/discovery/registry"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/stream"
)

// StreamRequest is the body of POST /v1/stream/{algo}. Approximate and
// sampling knobs are deliberately absent: incremental revalidation is
// exact-only (appends are only monotone for exact dependencies), so a
// request carrying max_err or sample_rows fails the strict decoder.
type StreamRequest struct {
	// CSV is this batch: header plus zero or more rows. On creation the
	// header fixes the session schema; on appends it must repeat it.
	CSV string `json:"csv"`
	// Session names an existing session to append to; empty creates one.
	Session string `json:"session,omitempty"`
	RunKnobs
}

func (q *StreamRequest) fields() []field {
	return q.RunKnobs.bind(field{"csv", &q.CSV}, field{"session", &q.Session})
}

// streamResponse is the JSON reply of POST /v1/stream/{algo}.
type streamResponse struct {
	Session     string   `json:"session"`
	Algo        string   `json:"algo"`
	Seq         int      `json:"seq"`
	Rows        int      `json:"rows"`
	TotalRows   int      `json:"total_rows"`
	Fingerprint string   `json:"fingerprint"`
	Count       int      `json:"count"`
	Results     []string `json:"results"`
	Added       []string `json:"added"`
	Removed     []string `json:"removed"`
	Partial     bool     `json:"partial"`
	Reason      string   `json:"reason,omitempty"`
}

func (sr streamResponse) writeJSON(w http.ResponseWriter) { writeJSONBody(w, sr) }
func (sr streamResponse) writeText(w http.ResponseWriter) {
	fmt.Fprintf(w, "session %s batch %d rows %d total %d\n", sr.Session, sr.Seq, sr.Rows, sr.TotalRows)
	for _, l := range sr.Added {
		fmt.Fprintf(w, "+ %s\n", l)
	}
	for _, l := range sr.Removed {
		fmt.Fprintf(w, "- %s\n", l)
	}
	fmt.Fprintf(w, "%d dependencies\n", sr.Count)
	if sr.Partial {
		fmt.Fprintf(w, "PARTIAL: %s\n", sr.Reason)
	}
}

// serverStream is one live session; its mutex serializes batches (the
// stream.Session contract) and orders WAL appends within the session.
type serverStream struct {
	mu   sync.Mutex
	id   string
	sess *stream.Session
}

// streamTable is the session registry: bounded map, monotone ids, and
// the optional WAL shared by every session.
type streamTable struct {
	mu     sync.Mutex
	max    int
	nextID int
	byID   map[string]*serverStream
	wal    *stream.WAL
	// broken poisons the subsystem after a WAL open/replay/append
	// failure: durable and live state can no longer be kept in lockstep,
	// so every stream request answers 503 until restart. Before
	// poisoning, one bounded reopen-and-verify of the WAL is attempted —
	// a transient write error heals there; real damage fails the
	// verification and the poisoning stands. The state is visible on
	// /readyz and the stream.wal_poisoned gauge.
	broken error

	gPoisoned *obs.Gauge
	cReopened *obs.Counter
}

func newStreamTable(max int, reg *obs.Registry) *streamTable {
	return &streamTable{
		max:       max,
		byID:      make(map[string]*serverStream),
		gPoisoned: reg.Gauge("stream.wal_poisoned"),
		cReopened: reg.Counter("stream.wal_reopen_recoveries"),
	}
}

func (t *streamTable) get(id string) *serverStream {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

func (t *streamTable) unavailable() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.broken
}

func (t *streamTable) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.poisonLocked(err)
}

func (t *streamTable) poisonLocked(err error) {
	if t.broken == nil {
		t.broken = err
	}
	t.gPoisoned.Set(1)
}

// walAppend runs one append against the shared WAL (a no-op without
// one). On failure it attempts the single bounded recovery — reopen the
// log from disk, re-verify every frame, retry the append once — and
// only poisons the subsystem when that fails too, so one transient disk
// hiccup does not permanently 503 the stream routes.
func (t *streamTable) walAppend(do func(w *stream.WAL) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.walAppendLocked(do)
}

func (t *streamTable) walAppendLocked(do func(w *stream.WAL) error) error {
	if t.wal == nil {
		return nil
	}
	err := do(t.wal)
	if err == nil {
		return nil
	}
	if rerr := t.wal.Reopen(); rerr != nil {
		err = fmt.Errorf("%w (reopen failed: %v)", err, rerr)
	} else if err2 := do(t.wal); err2 == nil {
		t.cReopened.Inc()
		return nil
	} else {
		err = err2
	}
	t.poisonLocked(err)
	return err
}

// register adds a replayed session under its logged id, keeping nextID
// past every replayed suffix. Replay ignores the cap: sessions that were
// admitted before a restart are not orphaned by a lower cap after one.
func (t *streamTable) register(id string, sess *stream.Session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID[id] = &serverStream{id: id, sess: sess}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "s")); err == nil && n > t.nextID {
		t.nextID = n
	}
}

// admit reports why the table cannot take one more session: 503 when
// the subsystem is poisoned, 429 when the cap is reached.
func (t *streamTable) admit() *apiError {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.admitLocked()
}

func (t *streamTable) admitLocked() *apiError {
	if t.broken != nil {
		return &apiError{status: http.StatusServiceUnavailable, code: "stream_unavailable",
			msg: "stream subsystem unavailable: " + t.broken.Error()}
	}
	if len(t.byID) >= t.max {
		return &apiError{status: http.StatusTooManyRequests, code: "stream_sessions_exhausted",
			msg: fmt.Sprintf("session table full (%d live sessions)", len(t.byID)), retryAfter: 1}
	}
	return nil
}

// commit registers a created session under the next id, logging it to
// the WAL first: a session the client learned the id of always survives
// a restart. It admits again, as a concurrent creation may have taken
// the last slot while this one's first batch ran.
func (t *streamTable) commit(st *serverStream, algo string) *apiError {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.admitLocked(); e != nil {
		return e
	}
	id := "s" + strconv.Itoa(t.nextID+1)
	if err := t.walAppendLocked(func(w *stream.WAL) error {
		return w.AppendCreate(id, algo, st.sess.Schema())
	}); err != nil {
		return &apiError{status: http.StatusInternalServerError, code: "stream_wal_failed", msg: err.Error()}
	}
	t.nextID++
	st.id = id
	t.byID[id] = st
	return nil
}

func (t *streamTable) closeWAL() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil {
		return nil
	}
	err := t.wal.Close()
	t.wal = nil
	return err
}

// streamOptions are the session-lifetime knobs: ingestion limits mirror
// the CSV endpoints (the row bound applies to the whole relation, so a
// stream cannot grow past what a one-shot request could post), while
// workers and budget are overwritten per batch from the request.
func (s *Server) streamOptions() stream.Options {
	return stream.Options{
		Workers: s.cfg.Workers,
		Limits:  relation.Limits{MaxRows: s.cfg.MaxRows, MaxFieldBytes: s.cfg.MaxFieldBytes},
		Obs:     s.reg,
	}
}

// openStreamWAL opens and replays the session log, rebuilding every
// session batch by batch — same rows, same chained fingerprints, same
// rulesets. Replay runs unbudgeted on the background context; a partial
// replayed sync (impossible short of an engine panic) heals on the
// session's next batch, but a record that fails to apply poisons the
// subsystem instead of resurrecting half a session.
func (s *Server) openStreamWAL(path string) error {
	wal, err := stream.OpenWALWith(path, stream.WALOptions{Quarantine: s.cfg.WALQuarantine})
	if err != nil {
		return err
	}
	err = wal.Replay(func(rec stream.WALRecord) error {
		switch rec.Op {
		case "create":
			schema, serr := rec.SchemaOf()
			if serr != nil {
				return serr
			}
			sess, serr := stream.NewSession(rec.Algo, schema, s.streamOptions())
			if serr != nil {
				return serr
			}
			s.streams.register(rec.Session, sess)
			return nil
		case "batch":
			st := s.streams.get(rec.Session)
			if st == nil {
				return fmt.Errorf("stream: wal batch for unknown session %q", rec.Session)
			}
			rows, rerr := rec.RowsOf()
			if rerr != nil {
				return rerr
			}
			_, rerr = st.sess.AppendBatch(context.Background(), rows)
			return rerr
		}
		return fmt.Errorf("stream: wal record with unknown op %q", rec.Op)
	})
	if err != nil {
		wal.Close()
		return err
	}
	s.streams.mu.Lock()
	s.streams.wal = wal
	s.streams.mu.Unlock()
	s.reg.Gauge("server.stream.sessions").Set(int64(len(s.streams.byID)))
	return nil
}

// streamEndpoints lists the per-algorithm breaker keys for the stream
// route: one per incremental discoverer.
func streamEndpoints() []string {
	var eps []string
	for _, a := range Algorithms() {
		if stream.Supported(a) {
			eps = append(eps, "stream."+a)
		}
	}
	return eps
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	algo := r.PathValue("algo")
	if _, ok := registry.Lookup(algo); !ok {
		s.reg.Counter("server.stream.unknown_algo").Inc()
		writeAPIError(w, unknownAlgo(algo))
		return
	}
	if !stream.Supported(algo) {
		writeAPIError(w, &apiError{status: http.StatusBadRequest, code: "streaming_unsupported",
			msg: fmt.Sprintf("algorithm %q has no incremental engine (want one of %v)", algo, streamEndpoints())})
		return
	}
	endpoint := "stream." + algo
	if err := s.streams.unavailable(); err != nil {
		s.fail(w, endpoint, &apiError{status: http.StatusServiceUnavailable, code: "stream_unavailable",
			msg: "stream subsystem unavailable: " + err.Error()})
		return
	}
	var req StreamRequest
	s.serve(w, r, endpoint, &req, func() (runFunc, *apiError) { return s.checkStream(algo, req) })
}

// checkStream is the stream route's check-and-parse step. A request
// without a session creates one from its CSV, parsed as a one-shot
// request's; a request naming a session must name a live session of
// this algorithm, and its batch is parsed with that session's schema.
func (s *Server) checkStream(algo string, req StreamRequest) (runFunc, *apiError) {
	if req.Session == "" {
		rel, e := s.parseCSV("stream", req.CSV, nil)
		if e != nil {
			return nil, e
		}
		sess, err := stream.NewSession(algo, rel.Schema(), s.streamOptions())
		if err != nil {
			return nil, &apiError{status: http.StatusBadRequest, code: "streaming_unsupported", msg: err.Error()}
		}
		st, rows := &serverStream{sess: sess}, streamTuples(rel)
		return func(ctx context.Context, p RunParams) (response, engine.Stop, *apiError) {
			if e := s.streams.admit(); e != nil {
				return nil, engine.Stop{}, e
			}
			return s.streamBatch(ctx, algo, st, rows, p)
		}, nil
	}
	st := s.streams.get(req.Session)
	if st == nil {
		return nil, &apiError{status: http.StatusNotFound, code: "unknown_session",
			msg: fmt.Sprintf("no stream session %q (sessions do not survive a restart without -jobs-dir)", req.Session)}
	}
	if st.sess.Algo() != algo {
		return nil, &apiError{status: http.StatusBadRequest, code: "algo_mismatch",
			msg: fmt.Sprintf("session %s streams %q, not %q", st.id, st.sess.Algo(), algo)}
	}
	rel, e := s.parseCSV("batch", req.CSV, st.sess.Schema())
	if e != nil {
		return nil, e
	}
	rows := streamTuples(rel)
	return func(ctx context.Context, p RunParams) (response, engine.Stop, *apiError) {
		return s.streamBatch(ctx, algo, st, rows, p)
	}, nil
}

// streamBatch ingests one batch under the session lock: per-request run
// knobs, the engine sync, and — only after the appender accepted the
// rows — the fsynced WAL record, so the response implies durability. A
// session being created has no id yet and is committed only if this
// first batch answers 200 (budget-partial included): a creation that
// ends in an engine panic or a cancellation leaves nothing behind.
func (s *Server) streamBatch(ctx context.Context, algo string, st *serverStream,
	rows [][]relation.Value, p RunParams) (response, engine.Stop, *apiError) {

	st.mu.Lock()
	defer st.mu.Unlock()
	st.sess.SetRun(p.Workers, p.Budget)
	res, err := st.sess.AppendBatch(ctx, rows)
	if err != nil {
		return nil, engine.Stop{}, ingestError(err, "invalid_batch")
	}
	if st.id == "" && outcomeError(res.Stop) == nil {
		if e := s.streams.commit(st, algo); e != nil {
			return nil, engine.Stop{}, e
		}
		s.reg.Gauge("server.stream.sessions").Add(1)
	}
	if st.id != "" && len(rows) > 0 {
		if err := s.streams.walAppend(func(w *stream.WAL) error {
			return w.AppendBatch(st.id, res.Seq, rows)
		}); err != nil {
			return nil, engine.Stop{}, &apiError{status: http.StatusInternalServerError, code: "stream_wal_failed", msg: err.Error()}
		}
		s.reg.Counter("server.stream.batches").Inc()
	}
	results := res.Lines
	if results == nil {
		results = []string{}
	}
	return streamResponse{
		Session: st.id, Algo: algo, Seq: res.Seq, Rows: res.Rows, TotalRows: res.TotalRows,
		Fingerprint: res.Fingerprint, Count: len(res.Lines), Results: results,
		Added: res.Added, Removed: res.Removed, Partial: res.Partial, Reason: res.Reason,
	}, res.Stop, nil
}

func streamTuples(r *relation.Relation) [][]relation.Value {
	rows := make([][]relation.Value, r.Rows())
	for i := range rows {
		rows[i] = r.Tuple(i)
	}
	return rows
}
