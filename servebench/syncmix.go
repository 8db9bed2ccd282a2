package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"deptree/internal/deps/fd"
	"deptree/internal/discovery/registry"
	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/server"
)

// syncKinds are the sync-mix op kinds: five discoverers cheap enough to
// serve synchronously at these sizes, then validate and repair. cfd,
// mvd, fastdc and lexod take seconds to minutes per op here and would
// set every tail on their own, so they stay out.
var syncKinds = []string{"tane", "od", "pfd", "cords", "fastfd", "validate", "repair"}

// Rule specs for validate and repair over gen.Hotels: the planted FDs.
const (
	validateFDs = "address->region;region->star;star->price"
	repairFD    = "address->region"
)

// syncReq is one generated synchronous request and its expected reply.
type syncReq struct {
	kind    string
	workers int // 1, or 0 for the server default (nproc)
	body    []byte
	want    []byte
}

func (r syncReq) path() string {
	switch r.kind {
	case "validate", "repair":
		return "/v1/" + r.kind
	}
	return "/v1/discover/" + r.kind
}

// hotelsCSV generates a gen.Hotels relation of the given size as CSV.
// gen.Hotels panics on some seeds (a duplicate of a duplicate of ... a
// row loses three address bytes per generation until the slice runs
// out); such a seed is replaced by the next one of a fixed sequence, so
// the inputs stay deterministic in the benchmark's seed.
func hotelsCSV(rows int, seed int64) string {
	rel := hotels(rows, seed)
	for rel == nil {
		seed = seed*6364136223846793005 + 1442695040888963407
		rel = hotels(rows, seed)
	}
	var b bytes.Buffer
	if err := relation.WriteCSV(rel, &b); err != nil {
		panic(err) // generated relations always encode
	}
	return b.String()
}

// hotels is gen.Hotels with the generator's panic turned into nil.
func hotels(rows int, seed int64) (rel *relation.Relation) {
	defer func() {
		if recover() != nil {
			rel = nil
		}
	}()
	return gen.Hotels(gen.HotelConfig{Rows: rows, Seed: seed, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.1})
}

// golden is the i-th term of the golden-ratio sequence in [0,1): evenly
// spread for any prefix length.
func golden(i int) float64 { return math.Mod(0.5+float64(i)*0.6180339887498949, 1) }

// logUniform maps u in [0,1) onto [lo, hi) log-uniformly.
func logUniform(lo, hi int, u float64) int {
	return int(float64(lo) * math.Pow(float64(hi)/float64(lo), u))
}

// genSyncReqs builds strata requests per (kind, workers) pair, with row
// counts spread log-uniformly over 500–5000 at the strata midpoints, so
// every seed sends the same sizes and only the data and the op order
// vary with it (fastfd is capped at 500 rows). Bodies are hashed into h
// in generation order.
func genSyncReqs(rng *rand.Rand, strata int, h hash.Hash) []syncReq {
	var out []syncReq
	for _, kind := range syncKinds {
		for _, workers := range []int{1, 0} {
			for s := 0; s < strata; s++ {
				rows := logUniform(500, 5000, (float64(s)+0.5)/float64(strata))
				if kind == "fastfd" {
					rows = min(rows, 500)
				}
				csv := hotelsCSV(rows, rng.Int63())
				knobs := server.RunKnobs{Workers: workers}
				var v any
				switch kind {
				case "validate":
					v = server.ValidateRequest{CSV: csv, FDs: validateFDs, RunKnobs: knobs}
				case "repair":
					v = server.RepairRequest{CSV: csv, FD: repairFD, RunKnobs: knobs}
				default:
					v = server.DiscoverRequest{CSV: csv, RunKnobs: knobs}
				}
				body, err := json.Marshal(v)
				if err != nil {
					panic(err)
				}
				h.Write(body)
				out = append(out, syncReq{kind: kind, workers: workers, body: body})
			}
		}
	}
	return out
}

// Reply mirrors of the server's JSON bodies (same fields, same order),
// so an expected reply can be rendered in-process and byte-compared.
type discoverReply struct {
	Algo    string   `json:"algo"`
	Count   int      `json:"count"`
	Results []string `json:"results"`
	Partial bool     `json:"partial"`
	Reason  string   `json:"reason,omitempty"`
}

type validateReply struct {
	Report  string `json:"report"`
	Checked int    `json:"checked"`
	Rules   int    `json:"rules"`
	Partial bool   `json:"partial"`
	Reason  string `json:"reason,omitempty"`
}

type repairReply struct {
	CSV     string   `json:"csv"`
	Changes []string `json:"changes"`
	Partial bool     `json:"partial"`
	Reason  string   `json:"reason,omitempty"`
}

// stages accumulates per-layer wall time of in-process replays; a nil
// stages runs the calls untimed.
type stages map[string][]time.Duration

func (s stages) time(name string, f func()) {
	if s == nil {
		f()
		return
	}
	start := time.Now()
	f()
	s[name] = append(s[name], time.Since(start))
}

// served is one in-process run of a sync request.
type served struct {
	body     []byte // the reply the server would send
	rel      *relation.Relation
	csvBytes int
}

// serveSync runs one sync request in-process through the layers the
// server calls, in the server's order — decode, parse, run, render. With
// st non-nil each layer is timed.
func serveSync(r syncReq, reg *obs.Registry, st stages) (served, error) {
	workers := r.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := server.RunParams{Workers: workers, Obs: reg}
	ctx := context.Background()
	var csv, rules string
	var derr error
	st.time("decode", func() {
		switch r.kind {
		case "validate":
			var q server.ValidateRequest
			derr = json.Unmarshal(r.body, &q)
			csv, rules = q.CSV, q.FDs
		case "repair":
			var q server.RepairRequest
			derr = json.Unmarshal(r.body, &q)
			csv, rules = q.CSV, q.FD
		default:
			var q server.DiscoverRequest
			derr = json.Unmarshal(r.body, &q)
			csv = q.CSV
		}
	})
	if derr != nil {
		return served{}, derr
	}
	var rel *relation.Relation
	var err error
	st.time("parse", func() {
		rel, err = relation.ReadCSVAuto("request", []byte(csv), relation.Limits{MaxBytes: 16 << 20})
	})
	if err != nil {
		return served{}, err
	}
	sv := served{rel: rel, csvBytes: len(csv)}
	var reply any
	switch r.kind {
	case "validate":
		fds, err := server.ParseFDList(rel.Schema(), rules)
		if err != nil {
			return sv, err
		}
		var out server.ValidateOutput
		st.time("validate", func() { out = server.RunValidate(ctx, rel, fds, p) })
		reply = validateReply{Report: out.Report, Checked: out.Completed, Rules: out.Rules, Partial: out.Partial, Reason: out.Reason}
	case "repair":
		f, err := server.ParseFD(rel.Schema(), rules)
		if err != nil {
			return sv, err
		}
		var out server.RepairOutput
		st.time("repair", func() { out, err = server.RunRepair(ctx, rel, []fd.FD{f}, p) })
		if err != nil {
			return sv, err
		}
		changes := out.Changes
		if changes == nil {
			changes = []string{}
		}
		reply = repairReply{CSV: out.CSV, Changes: changes, Partial: out.Partial, Reason: out.Reason}
	default:
		a, ok := registry.Lookup(r.kind)
		if !ok {
			return sv, fmt.Errorf("unknown algorithm %q", r.kind)
		}
		var out registry.Output
		st.time(r.kind, func() {
			out = a.Run(ctx, rel, registry.RunOptions{Workers: p.Workers, Obs: reg})
		})
		lines := out.Lines
		if lines == nil {
			lines = []string{}
		}
		reply = discoverReply{Algo: r.kind, Count: len(out.Lines), Results: lines, Partial: out.Partial, Reason: out.Reason}
	}
	st.time("render", func() { sv.body, err = json.Marshal(reply) })
	sv.body = append(sv.body, '\n')
	return sv, err
}

// forEach runs f over 0..n-1 on nproc goroutines and returns the first
// error.
func forEach(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	work := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// syncMix is the sync-mix workload: POSTs of generated hotels relations
// to the synchronous discover, validate and repair endpoints. It uses no
// WAL and no cache.
type syncMix struct {
	pool []syncReq // syncStrata requests per (kind, workers) pair, kind-major
}

// syncStrata is the number of size strata per (kind, workers) pair: 7
// kinds x 2 worker settings x 15 strata = 210 distinct request bodies, the
// fewest that leave 10 latencies above a window's p95.
const (
	syncStrata = 15
	syncPeriod = 7 * 2 * syncStrata
	// syncStride steps each kind through its variants; coprime with
	// 2*syncStrata, so every window of syncPeriod ops sends the whole
	// pool once.
	syncStride = 7
)

func newSyncMix(rng *rand.Rand, h hash.Hash, _ int) *syncMix {
	return &syncMix{pool: genSyncReqs(rng, syncStrata, h)}
}

// req maps op i to its request. The order is the same for every seed:
// kinds round-robin, and each kind steps through its worker settings and
// sizes with a stride, so heavy ops are spread evenly, every window sends
// the same requests, and the seed changes only the data.
func (w *syncMix) req(i int) syncReq {
	per := len(w.pool) / len(syncKinds)
	k := i % len(syncKinds)
	v := (i / len(syncKinds) * syncStride) % per
	return w.pool[k*per+v]
}

func (w *syncMix) prepare(string) error {
	// Expected replies, computed in-process before any timing.
	return forEach(len(w.pool), func(i int) error {
		sv, err := serveSync(w.pool[i], nil, nil)
		w.pool[i].want = sv.body
		return err
	})
}

func (w *syncMix) durable() bool             { return false }
func (w *syncMix) checkBoot(*instance) error { return nil }
func (w *syncMix) verify() (int, error)      { return 0, nil }

func (w *syncMix) do(c *client, i int) result {
	r := w.req(i)
	status, body, err := c.do("POST", r.path(), r.body)
	if res := classify(status, body, err); res.out != opOK {
		return res
	}
	if !bytes.Equal(body, r.want) {
		return failed("%s reply differs from the in-process run: got %.200q want %.200q", r.kind, body, r.want)
	}
	return ok()
}

// traceInputs samples three requests per kind for the layer replay.
func (w *syncMix) traceInputs(rng *rand.Rand) traceSet {
	var reqs []syncReq
	per := 2 * syncStrata
	for k := range syncKinds {
		for _, j := range rng.Perm(per)[:3] {
			reqs = append(reqs, w.pool[k*per+j])
		}
	}
	return traceSet{reqs: reqs}
}
