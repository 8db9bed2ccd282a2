package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"deptree/internal/discovery/registry"
	"deptree/internal/gen"
	"deptree/internal/relation"
	"deptree/internal/server"
)

// Stream-append shape: 4 sessions (2 tane, 2 od) over 100k-row
// gen.AppendBatches bases, 200-row append batches, drift planted in one
// fixed batch of every session.
const (
	streamBaseRows  = 100_000
	streamBatchRows = 200
	streamDriftAt   = 8 // 1-based batch index carrying the planted drift
	// A window of streamPeriod ops appends 50 batches to every session.
	streamPeriod = 200
)

var streamAlgos = []string{"tane", "od", "tane", "od"}

// streamReply mirrors the server's POST /v1/stream/{algo} reply.
type streamReply struct {
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

// streamPlan is one session's generated input as CSV: the base that
// creates it and the batches appended in order.
type streamPlan struct {
	algo    string
	base    string
	batches []string
}

// genStreamPlan generates a plan with the drift planted at streamDriftAt.
func genStreamPlan(algo string, baseRows, batches int, seed int64) streamPlan {
	p := gen.AppendBatches(gen.AppendConfig{
		BaseRows: baseRows, BatchRows: streamBatchRows, Batches: batches,
		DriftAt: streamDriftAt, Seed: seed,
	})
	var b bytes.Buffer
	if err := relation.WriteCSV(p.Base, &b); err != nil {
		panic(err)
	}
	plan := streamPlan{algo: algo, base: b.String()}
	for _, rows := range p.Batches {
		rel := relation.MustFromRows("batch", p.Base.Schema(), rows)
		b.Reset()
		if err := relation.WriteCSV(rel, &b); err != nil {
			panic(err)
		}
		plan.batches = append(plan.batches, b.String())
	}
	return plan
}

// header is the CSV's header line (an append batch with no rows).
func header(csv string) string { return csv[:strings.IndexByte(csv, '\n')+1] }

// streamSession is one session of the workload.
type streamSession struct {
	plan    streamPlan
	id      string
	create  []byte   // the creation request body
	bodies  [][]byte // append request bodies, batch order
	created streamReply

	mu      sync.Mutex
	applied map[int]int // server seq -> batch index
	last    streamReply // reply with the highest seq
	drift   streamReply // reply to the drift batch
}

// streamAppend is the stream-append workload: 200-row append
// batches, round-robin over the sessions, on a server that rebuilt the
// sessions from its stream WAL at boot.
type streamAppend struct {
	sess []*streamSession
}

func newStreamAppend(rng *rand.Rand, h hash.Hash, ops, baseRows int) *streamAppend {
	w := &streamAppend{}
	batches := (ops + len(streamAlgos) - 1) / len(streamAlgos)
	for i, algo := range streamAlgos {
		s := &streamSession{
			plan:    genStreamPlan(algo, baseRows, batches, rng.Int63()),
			id:      fmt.Sprintf("s%d", i+1), // the server numbers sessions in creation order
			applied: map[int]int{},
		}
		var err error
		if s.create, err = json.Marshal(server.StreamRequest{CSV: s.plan.base}); err != nil {
			panic(err)
		}
		h.Write(s.create)
		for _, csv := range s.plan.batches {
			body, err := json.Marshal(server.StreamRequest{CSV: csv, Session: s.id})
			if err != nil {
				panic(err)
			}
			h.Write(body)
			s.bodies = append(s.bodies, body)
		}
		w.sess = append(w.sess, s)
	}
	return w
}

func (w *streamAppend) durable() bool { return true }

// post sends one stream request and decodes a 200 reply.
func postStream(c *client, algo string, body []byte) (streamReply, result) {
	var rep streamReply
	status, out, err := c.do("POST", "/v1/stream/"+algo, body)
	if r := classify(status, out, err); r.out != opOK {
		return rep, r
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, failed("stream reply: %v", err)
	}
	if rep.Partial {
		return rep, failed("stream %s partial: %s", rep.Session, rep.Reason)
	}
	return rep, ok()
}

// prepare has an untimed server instance create every session through
// the HTTP API, leaving its stream WAL in dir for every timed boot to
// replay.
func (w *streamAppend) prepare(dir string) error {
	in, _, err := boot(dir)
	if err != nil {
		return err
	}
	c := newClient(in.url, 1)
	defer c.close()
	for _, s := range w.sess {
		rep, r := postStream(c, s.plan.algo, s.create)
		if r.out != opOK {
			in.stop()
			return fmt.Errorf("earlier instance, create %s session: %v", s.plan.algo, r.err)
		}
		if rep.Session != s.id {
			in.stop()
			return fmt.Errorf("earlier instance named the session %s, want %s", rep.Session, s.id)
		}
		s.created = rep
	}
	return in.stop()
}

// checkBoot posts a header-only batch to every session (no rows, so no
// WAL record) and checks the replayed fingerprint and ruleset equal the
// earlier instance's.
func (w *streamAppend) checkBoot(in *instance) error {
	c := newClient(in.url, 1)
	defer c.close()
	for _, s := range w.sess {
		body, err := json.Marshal(server.StreamRequest{CSV: header(s.plan.base), Session: s.id})
		if err != nil {
			return err
		}
		rep, r := postStream(c, s.plan.algo, body)
		if r.out != opOK {
			return r.err
		}
		if rep.Seq != 1 || rep.Fingerprint != s.created.Fingerprint || !slices.Equal(rep.Results, s.created.Results) {
			return fmt.Errorf("session %s after replay: seq %d fingerprint %s (%d rules), earlier instance had seq 1 fingerprint %s (%d rules)",
				s.id, rep.Seq, rep.Fingerprint, len(rep.Results), s.created.Fingerprint, len(s.created.Results))
		}
	}
	return nil
}

func (w *streamAppend) do(c *client, i int) result {
	s := w.sess[i%len(w.sess)]
	k := i / len(w.sess)
	rep, r := postStream(c, s.plan.algo, s.bodies[k])
	if r.out != opOK {
		return r
	}
	if rep.Session != s.id || rep.Rows != strings.Count(s.plan.batches[k], "\n")-1 {
		return failed("batch %d of %s: session %s rows %d", k, s.id, rep.Session, rep.Rows)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied[rep.Seq] = k
	if rep.Seq > s.last.Seq {
		s.last = rep
	}
	if k == streamDriftAt-1 {
		s.drift = rep
	}
	return ok()
}

// rebuild replays a session's rows in the order the server applied them
// into a fresh appender, returning the relation and its fingerprint.
func (s *streamSession) rebuild() (*relation.Relation, string, error) {
	base, err := relation.ReadCSVAuto("stream", []byte(s.plan.base), relation.Limits{})
	if err != nil {
		return nil, "", err
	}
	app := relation.NewAppender(relation.New("stream", base.Schema()), relation.Limits{})
	fp, err := app.AppendBatch(tuples(base))
	if err != nil {
		return nil, "", err
	}
	kinds := kindsOf(base.Schema())
	for seq := 2; seq <= s.last.Seq; seq++ {
		k, ok := s.applied[seq]
		if !ok {
			return nil, "", fmt.Errorf("session %s: no reply carried seq %d", s.id, seq)
		}
		b, err := relation.ReadCSVLimits("batch", strings.NewReader(s.plan.batches[k]), kinds, relation.Limits{})
		if err != nil {
			return nil, "", err
		}
		if fp, err = app.AppendBatch(tuples(b)); err != nil {
			return nil, "", err
		}
	}
	return app.Relation(), fp, nil
}

// verify checks every session's final fingerprint and ruleset against a
// from-scratch registry run over the same rows, and that the drift batch
// demoted rules.
func (w *streamAppend) verify() (int, error) {
	errs := make([]error, len(w.sess))
	forEach(len(w.sess), func(i int) error {
		s := w.sess[i]
		if len(s.drift.Removed) == 0 {
			errs[i] = fmt.Errorf("session %s: the drift batch demoted no rule", s.id)
			return nil
		}
		rel, fp, err := s.rebuild()
		if err != nil {
			errs[i] = err
			return nil
		}
		a, _ := registry.Lookup(s.plan.algo)
		out := a.Run(context.Background(), rel, registry.RunOptions{Workers: 1})
		if fp != s.last.Fingerprint || !slices.Equal(out.Lines, s.last.Results) {
			errs[i] = fmt.Errorf("session %s at seq %d: served fingerprint %s (%d rules), from scratch %s (%d rules)",
				s.id, s.last.Seq, s.last.Fingerprint, len(s.last.Results), fp, len(out.Lines))
		}
		return nil
	})
	return countErrs(errs)
}

func tuples(r *relation.Relation) [][]relation.Value {
	rows := make([][]relation.Value, r.Rows())
	for i := range rows {
		rows[i] = r.Tuple(i)
	}
	return rows
}

func kindsOf(s *relation.Schema) []relation.Kind {
	kinds := make([]relation.Kind, s.Len())
	for i := range kinds {
		kinds[i] = s.Attr(i).Kind
	}
	return kinds
}

// traceInputs takes one session per algorithm, cut to the batches up to
// two past the drift.
func (w *streamAppend) traceInputs(*rand.Rand) traceSet {
	var ps []streamPlan
	for _, s := range w.sess[:2] {
		p := s.plan
		p.batches = p.batches[:min(len(p.batches), streamDriftAt+2)]
		ps = append(ps, p)
	}
	return traceSet{streams: ps}
}
