package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"deptree/internal/attrset"
	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/partition"
	"deptree/internal/relation"
	"deptree/internal/stream"
	"deptree/internal/wal"
)

// traceSet is the input of the layer replay: a seeded sample of the
// run's own ops for the layers the workload reaches, and small seeded
// side inputs shaped like the other workloads' ops for the rest, so
// every layer is timed on every workload.
type traceSet struct {
	reqs    []syncReq
	specs   []jobs.Spec
	streams []streamPlan
	// wals are the logs the run wrote, replayed for throughput.
	wals []string
	// streamWAL is the stream log whose sessions are rebuilt for
	// stream.replay_s ("" = one written from streams).
	streamWAL string
}

// fill adds side inputs to the groups the workload left empty.
func (ts *traceSet) fill(rng *rand.Rand) {
	h := sha256.New() // side inputs are never sent; their digest is dropped
	if len(ts.reqs) == 0 {
		ts.reqs = genSyncReqs(rng, 1, h)
	}
	if len(ts.specs) == 0 {
		for _, op := range genJobOps(rng, len(jobKinds), spread, h) {
			ts.specs = append(ts.specs, op.spec())
		}
	}
	if len(ts.streams) == 0 {
		for _, algo := range streamAlgos[:2] {
			ts.streams = append(ts.streams, genStreamPlan(algo, 20_000, streamDriftAt+2, rng.Int63()))
		}
	}
}

// sampler polls the admission gauges while the throughput phase runs, the
// one phase in which ops overlap.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	queued, inflight []float64
}

const sampleEvery = 2 * time.Millisecond

// newSampler allocates room for the samples of a phase lasting about d,
// so that the buffers are in place before the run's heap readings and do
// not count as the server's growth.
func newSampler(d time.Duration) *sampler {
	n := int(d/sampleEvery)*11/10 + 64
	return &sampler{stop: make(chan struct{}), queued: make([]float64, 0, n), inflight: make([]float64, 0, n)}
}

func (s *sampler) start(reg *obs.Registry) {
	q, f := reg.Gauge("server.admission.queued"), reg.Gauge("server.inflight")
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.queued = append(s.queued, float64(q.Value()))
				s.inflight = append(s.inflight, float64(f.Value()))
			}
		}
	}()
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// replay is the outcome of the layer replay.
type replay struct {
	reg      *obs.Registry
	st       stages
	csvBytes float64 // bytes parsed by the request group
	ops      float64 // requests and jobs replayed
	store    [2]int64
	walBytes float64
	walTime  time.Duration
	replayS  time.Duration
	drift    []time.Duration
}

// runReplay times each layer from outside by calling its public
// functions on ts, in the order the server calls them. dir is scratch
// space for the replay's own logs.
func runReplay(ts traceSet, dir string) (*replay, error) {
	rp := &replay{reg: obs.New(), st: stages{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Requests: decode → parse → run → render, then partition builds.
	for _, r := range ts.reqs {
		sv, err := serveSync(r, rp.reg, rp.st)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.kind, err)
		}
		rp.csvBytes += float64(sv.csvBytes)
		rp.ops++
		rp.st.time("build", func() {
			for c := 0; c < sv.rel.Cols(); c++ {
				partition.Build(sv.rel, attrset.Single(c))
			}
		})
	}
	if err := rp.jobs(ts.specs, filepath.Join(dir, "jobs")); err != nil {
		return nil, err
	}
	if err := rp.rawWAL(ts.specs, filepath.Join(dir, "raw.wal")); err != nil {
		return nil, err
	}
	wals := ts.wals
	if len(wals) == 0 {
		wals = []string{filepath.Join(dir, "jobs", "jobs.wal"), filepath.Join(dir, "raw.wal")}
	}
	if err := rp.walReplay(wals); err != nil {
		return nil, err
	}
	for _, p := range ts.streams {
		if err := rp.stream(p); err != nil {
			return nil, err
		}
	}
	streamWAL := ts.streamWAL
	if streamWAL == "" {
		streamWAL = filepath.Join(dir, "stream.wal")
		if err := writeStreamWAL(streamWAL, ts.streams); err != nil {
			return nil, err
		}
	}
	return rp, rp.streamReplay(streamWAL)
}

// jobs submits every spec twice to a manager over a WAL store: the first
// run queues and executes, the resubmission is a result-cache hit.
func (rp *replay) jobs(specs []jobs.Spec, dir string) error {
	store, err := jobs.OpenWAL(filepath.Join(dir, "jobs.wal"), jobs.WALOptions{})
	if err != nil {
		return err
	}
	m, err := jobs.New(jobs.Config{
		Store: store,
		Run: func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
			return runJobSpec(ctx, spec, rp.reg)
		},
		Obs: rp.reg,
	})
	if err != nil {
		store.Close()
		return err
	}
	for pass := 0; pass < 2; pass++ {
		for _, spec := range specs {
			var ferr, serr error
			var v jobs.View
			rp.st.time("fingerprint", func() { _, ferr = spec.Fingerprint() })
			rp.st.time("submit", func() { v, serr = m.Submit(spec, "") })
			if err := firstErr(ferr, serr); err != nil {
				m.Close()
				return err
			}
			if v, _ = m.Wait(context.Background(), v.ID, time.Minute); v.State != jobs.StateDone {
				m.Close()
				return fmt.Errorf("replay job %s ended %s: %s", v.ID, v.State, v.Reason)
			}
			rp.ops++
		}
	}
	err = m.Close()
	a, s := store.Stats()
	rp.store = [2]int64{a, s}
	return err
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rawWAL times the shared log's Append and Sync on job submit records.
func (rp *replay) rawWAL(specs []jobs.Spec, path string) error {
	l, err := wal.Open(path, wal.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	if err := l.Replay(func([]byte) error { return nil }); err != nil {
		return err
	}
	for i, spec := range specs {
		payload, err := json.Marshal(jobs.Record{Type: jobs.RecSubmit, ID: fmt.Sprint(i), Spec: &spec})
		if err != nil {
			return err
		}
		rp.st.time("wal_append", func() { err = l.Append(payload, false) })
		if err != nil {
			return err
		}
		rp.st.time("wal_sync", func() { err = l.Sync() })
		if err != nil {
			return err
		}
	}
	return l.Close()
}

// walReplay times Log.Replay over each existing log.
func (rp *replay) walReplay(paths []string) error {
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil || fi.Size() <= wal.HeaderSize {
			continue
		}
		l, err := wal.Open(path, wal.Options{})
		if err != nil {
			return err
		}
		start := time.Now()
		err = l.Replay(func([]byte) error { return nil })
		rp.walTime += time.Since(start)
		rp.walBytes += float64(fi.Size())
		l.Close()
		if err != nil {
			return fmt.Errorf("replay %s: %w", path, err)
		}
	}
	return nil
}

// stream feeds a plan's batches to a session, and in lockstep to a bare
// appender and one refiner per column, so append, refine and the whole
// session batch are timed apart. The drift batch and the one after it
// (which pays the new rules' first full checks) are timed together.
func (rp *replay) stream(p streamPlan) error {
	base, err := relation.ReadCSVAuto("stream", []byte(p.base), relation.Limits{})
	if err != nil {
		return err
	}
	sess, err := stream.NewSession(p.algo, base.Schema(), stream.Options{Workers: runtime.NumCPU(), Obs: rp.reg})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := sess.AppendBatch(ctx, tuples(base)); err != nil {
		return err
	}
	rel := relation.New("stream", base.Schema())
	app := relation.NewAppender(rel, relation.Limits{})
	if _, err := app.AppendBatch(tuples(base)); err != nil {
		return err
	}
	refs := make([]*partition.Refiner, rel.Cols())
	for c := range refs {
		refs[c] = partition.NewRefiner(rel, attrset.Single(c))
	}
	kinds := kindsOf(base.Schema())
	var drift time.Duration
	for k, csv := range p.batches {
		b, err := relation.ReadCSVLimits("batch", strings.NewReader(csv), kinds, relation.Limits{})
		if err != nil {
			return err
		}
		rows := tuples(b)
		old := rel.Rows()
		rp.st.time("append", func() { _, err = app.AppendBatch(rows) })
		if err != nil {
			return err
		}
		rp.st.time("refine", func() {
			for _, f := range refs {
				f.AppendRefine(rel, old)
			}
		})
		start := time.Now()
		if _, err := sess.AppendBatch(ctx, rows); err != nil {
			return err
		}
		d := time.Since(start)
		switch k {
		case streamDriftAt - 1:
			drift = d
		case streamDriftAt:
			rp.drift = append(rp.drift, drift+d)
		default:
			rp.st["batch"] = append(rp.st["batch"], d)
		}
	}
	return nil
}

// writeStreamWAL logs each plan's base as a created session, the way the
// server logs a creation.
func writeStreamWAL(path string, plans []streamPlan) error {
	w, err := stream.OpenWAL(path)
	if err != nil {
		return err
	}
	if err := w.Replay(nil); err != nil {
		w.Close()
		return err
	}
	for i, p := range plans {
		base, err := relation.ReadCSVAuto("stream", []byte(p.base), relation.Limits{})
		if err == nil {
			id := fmt.Sprintf("s%d", i+1)
			err = firstErr(w.AppendCreate(id, p.algo, base.Schema()), w.AppendBatch(id, 1, tuples(base)))
		}
		if err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// streamReplay times rebuilding every session from a stream WAL, record
// by record, as the server does at boot.
func (rp *replay) streamReplay(path string) error {
	start := time.Now()
	w, err := stream.OpenWAL(path)
	if err != nil {
		return err
	}
	defer w.Close()
	sessions := map[string]*stream.Session{}
	err = w.Replay(func(rec stream.WALRecord) error {
		switch rec.Op {
		case "create":
			schema, err := rec.SchemaOf()
			if err != nil {
				return err
			}
			s, err := stream.NewSession(rec.Algo, schema, stream.Options{Workers: runtime.NumCPU(), Obs: rp.reg})
			sessions[rec.Session] = s
			return err
		case "batch":
			s := sessions[rec.Session]
			if s == nil {
				return fmt.Errorf("stream wal: batch for unknown session %q", rec.Session)
			}
			rows, err := rec.RowsOf()
			if err != nil {
				return err
			}
			_, err = s.AppendBatch(context.Background(), rows)
			return err
		}
		return fmt.Errorf("stream wal: unknown op %q", rec.Op)
	})
	rp.replayS = time.Since(start)
	return err
}

// metric is one printed number.
type metric struct {
	name, unit string
	value      float64
	base       string // the ratio's base, for the human-readable line
}

// counters flattens a registry snapshot: counters by name, histograms as
// name.count and name.sum, plus the sums the ratios need as bases.
func counters(s obs.Snapshot) map[string]float64 {
	m := map[string]float64{}
	for _, c := range s.Counters {
		m[c.Name] = float64(c.Value)
	}
	for _, h := range s.Histograms {
		m[h.Name+".count"] = float64(h.Count)
		m[h.Name+".sum"] = h.Sum
	}
	m["cache.lookups"] = m["cache.hits"] + m["cache.misses"]
	m["cache.upgrade_attempts"] = m["cache.upgrades"] + m["cache.upgrade_evictions"]
	m["jobs.cache.lookups"] = m["jobs.cache.hits"] + m["jobs.cache.misses"]
	return m
}

// delta is b - a, key by key.
func delta(a, b map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

// runView is what the layer metrics need from the served run.
type runView struct {
	ctr        map[string]float64 // counter deltas over the timed phases, plus "ops"
	store      [2]int64           // server job store appends, syncs
	events     float64            // spans retained during the timed phases
	queued     []float64
	inflight   []float64
	lateP95    float64 // ms, generator time between latency-phase ops
	shed       ratio
	errs       ratio
	heapGrowth float64 // MB
}

func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerMetrics assembles the per-layer metrics. Counter ratios come from
// the served run when their base is non-zero there, otherwise from the
// replay's own registry: a layer the workload never reaches is measured
// on the side inputs.
func layerMetrics(run runView, rp *replay) []metric {
	rep := counters(rp.reg.Snapshot())
	rep["ops"] = rp.ops
	pick := func(num, den string, scale float64) ratio {
		r := ratio{run.ctr[num] * scale, run.ctr[den]}
		if r.den == 0 {
			r = ratio{rep[num] * scale, rep[den]}
		}
		return r
	}
	st := rp.st
	service := sum(st["decode"]) + sum(st["parse"]) + sum(st["render"])
	for _, k := range syncKinds {
		service += sum(st[k])
	}
	store := run.store
	if store[0] == 0 {
		store = rp.store
	}
	r := func(name, unit string, x ratio) metric {
		return metric{name: name, unit: unit, value: x.value(), base: x.String()}
	}
	out := []metric{
		{name: "relation.parse_ms", unit: "ms", value: mean(st["parse"])},
		r("relation.parse_mb_s", "MB/s", ratio{rp.csvBytes / 1e6, sum(st["parse"]).Seconds()}),
		r("relation.parse_share", "ratio", ratio{ms(sum(st["parse"])), ms(service)}),
		{name: "relation.append_ms", unit: "ms", value: mean(st["append"])},
		{name: "partition.build_ms", unit: "ms", value: mean(st["build"])},
		r("partition.product_ms", "ms", pick("partition.product.seconds.sum", "ops", 1000)),
		r("partition.products_per_op", "count", pick("partition.products_total", "ops", 1)),
		{name: "partition.refine_ms", unit: "ms", value: mean(st["refine"])},
		r("engine.cache_hit_ratio", "ratio", pick("cache.hits", "cache.lookups", 1)),
		r("engine.tasks_per_op", "count", pick("engine.tasks.completed", "ops", 1)),
		r("engine.task_ms", "ms", pick("engine.task.seconds.sum", "engine.task.seconds.count", 1000)),
		r("engine.upgrade_ratio", "ratio", pick("cache.upgrades", "cache.upgrade_attempts", 1)),
	}
	for _, k := range syncKinds {
		switch k {
		case "validate", "repair":
			out = append(out, metric{name: "apps." + k + "_ms", unit: "ms", value: mean(st[k])})
		default:
			out = append(out, metric{name: "discovery." + k + "_ms", unit: "ms", value: mean(st[k])})
		}
	}
	out = append(out,
		metric{name: "server.decode_ms", unit: "ms", value: mean(st["decode"])},
		metric{name: "server.render_ms", unit: "ms", value: mean(st["render"])},
		metric{name: "server.admission_queue_mean", unit: "count", value: meanOf(run.queued)},
		metric{name: "server.inflight_mean", unit: "count", value: meanOf(run.inflight)},
		r("server.shed_ratio", "ratio", run.shed),
		r("jobs.queue_wait_ms", "ms", pick("jobs.queue.seconds.sum", "jobs.queue.seconds.count", 1000)),
		r("jobs.run_ms", "ms", pick("jobs.run.seconds.sum", "jobs.run.seconds.count", 1000)),
		r("jobs.cache_hit_ratio", "ratio", pick("jobs.cache.hits", "jobs.cache.lookups", 1)),
		metric{name: "jobs.submit_ms", unit: "ms", value: mean(st["submit"])},
		metric{name: "jobs.fingerprint_ms", unit: "ms", value: mean(st["fingerprint"])},
		metric{name: "wal.append_us", unit: "us", value: 1000 * mean(st["wal_append"])},
		metric{name: "wal.sync_ms", unit: "ms", value: mean(st["wal_sync"])},
		r("wal.syncs_per_append", "ratio", ratio{float64(store[1]), float64(store[0])}),
		r("wal.replay_mb_s", "MB/s", ratio{rp.walBytes / 1e6, rp.walTime.Seconds()}),
		metric{name: "stream.batch_ms", unit: "ms", value: mean(st["batch"])},
		metric{name: "stream.drift_batch_ms", unit: "ms", value: mean(rp.drift)},
		metric{name: "stream.replay_s", unit: "s", value: rp.replayS.Seconds()},
		r("obs.events_per_op", "count", ratio{run.events, run.ctr["ops"]}),
		metric{name: "obs.heap_growth_mb", unit: "MB", value: run.heapGrowth},
		metric{name: "bench.late_p95_ms", unit: "ms", value: run.lateP95},
		r("bench.error_ratio", "ratio", run.errs),
	)
	return out
}
