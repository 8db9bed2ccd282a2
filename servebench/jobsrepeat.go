package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"sync"

	"deptree/internal/deps/fd"
	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/server"
)

// jobKinds are the jobs-repeat op kinds: (kind, algo) pairs.
var jobKinds = [][2]string{
	{"discover", "tane"}, {"discover", "pfd"}, {"discover", "cords"},
	{"validate", ""}, {"repair", ""},
}

// jobOp is one generated job submission.
type jobOp struct {
	body   []byte
	repeat bool
	want   []byte // expected result, marshaled
}

// genJobOps builds n jobs cycling over jobKinds, workers alternating
// between 1 and the server default each round of kinds, job i over a
// fresh hotels relation of rows(i) rows. Job relations stay within
// 500–2000 rows: every job's CSV stays resident in the manager and in
// every WAL compaction snapshot, so larger ones would make the run mostly
// about those copies.
func genJobOps(rng *rand.Rand, n int, rows func(i int) int, h hash.Hash) []jobOp {
	out := make([]jobOp, n)
	for i := range out {
		kind := jobKinds[i%len(jobKinds)]
		req := server.JobRequest{Kind: kind[0], Algo: kind[1], CSV: hotelsCSV(rows(i), rng.Int63()),
			RunKnobs: server.RunKnobs{Workers: (i / len(jobKinds)) % 2}}
		switch kind[0] {
		case "validate":
			req.FDs = validateFDs
		case "repair":
			req.FD = repairFD
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		h.Write(body)
		out[i] = jobOp{body: body}
	}
	return out
}

// stratified sizes job i at the midpoint of one of jobStrata log-uniform
// bands of 500–2000 rows, stepping a band per round of kinds.
func stratified(i int) int {
	s := (i / len(jobKinds)) % jobStrata
	return logUniform(500, 2000, (float64(s)+0.5)/jobStrata)
}

// spread sizes job i by the golden-ratio sequence over the same range:
// the same sizes for every seed, and no size class large enough to sit
// on p95 by itself.
func spread(i int) int {
	return logUniform(500, 2000, golden(i))
}

// spec decodes the spec the server builds from the op's body.
func (op jobOp) spec() jobs.Spec {
	var req server.JobRequest
	if err := json.Unmarshal(op.body, &req); err != nil {
		panic(err) // generated bodies always decode
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return jobs.Spec{Kind: req.Kind, Algo: req.Algo, CSV: req.CSV, FDs: req.FDs, FD: req.FD, Workers: workers}
}

// runJobSpec runs one job spec in-process exactly as the server's job
// runner does, minus admission, and returns its result.
func runJobSpec(ctx context.Context, spec jobs.Spec, reg *obs.Registry) (jobs.Result, error) {
	rel, err := relation.ReadCSVAuto("job", []byte(spec.CSV), relation.Limits{MaxBytes: 16 << 20})
	if err != nil {
		return jobs.Result{}, err
	}
	p := server.RunParams{Workers: spec.Workers, Obs: reg}
	switch spec.Kind {
	case "discover":
		out, err := server.RunDiscover(ctx, rel, spec.Algo, p)
		return jobs.Result{Lines: out.Lines, Partial: out.Partial, Reason: out.Reason}, err
	case "validate":
		fds, err := server.ParseFDList(rel.Schema(), spec.FDs)
		if err != nil {
			return jobs.Result{}, err
		}
		out := server.RunValidate(ctx, rel, fds, p)
		return jobs.Result{Report: out.Text(), Partial: out.Partial, Reason: out.Reason}, nil
	case "repair":
		f, err := server.ParseFD(rel.Schema(), spec.FD)
		if err != nil {
			return jobs.Result{}, err
		}
		out, err := server.RunRepair(ctx, rel, []fd.FD{f}, p)
		return jobs.Result{CSV: out.CSV, Changes: out.Changes, Partial: out.Partial, Reason: out.Reason}, err
	}
	return jobs.Result{}, fmt.Errorf("unknown job kind %q", spec.Kind)
}

// expect fills op.want with the marshaled in-process result.
func (op *jobOp) expect() error {
	res, err := runJobSpec(context.Background(), op.spec(), nil)
	if err != nil {
		return err
	}
	op.want, err = json.Marshal(res)
	return err
}

// jobsRepeat is the jobs-repeat workload: every other op resubmits one
// of the specs an earlier server instance already finished (a result
// cache hit after WAL replay), the rest submit fresh specs that queue
// and run.
type jobsRepeat struct {
	first []jobOp
	fresh []jobOp

	// got is keyed by fresh op index and holds the SHA-256 of the
	// marshaled result received: a digest, so the generator's own heap
	// stays flat while the run measures the server's.
	mu  sync.Mutex
	got map[int][sha256.Size]byte
}

// jobStrata is the number of size strata of the first runs: 5 kinds x 4
// strata = 20 specs to resubmit. A window of jobsPeriod ops resubmits each
// of them 6 times and submits 120 fresh specs, 12 rounds of kinds and
// worker settings, and leaves 12 latencies above its p95.
const (
	jobStrata  = 4
	jobsPeriod = 240
)

func newJobsRepeat(rng *rand.Rand, h hash.Hash, ops int) *jobsRepeat {
	w := &jobsRepeat{
		first: genJobOps(rng, len(jobKinds)*jobStrata, stratified, h),
		fresh: genJobOps(rng, ops/2+1, spread, h),
		got:   map[int][sha256.Size]byte{},
	}
	for i := range w.first {
		w.first[i].repeat = true
	}
	return w
}

func (w *jobsRepeat) durable() bool { return true }

// prepare computes the first runs' expected results and has an untimed
// server instance run them through the HTTP API, leaving its job WAL in
// dir for every timed boot to replay.
func (w *jobsRepeat) prepare(dir string) error {
	if err := forEach(len(w.first), func(i int) error { return w.first[i].expect() }); err != nil {
		return err
	}
	in, _, err := boot(dir)
	if err != nil {
		return err
	}
	c := newClient(in.url, runtime.NumCPU())
	defer c.close()
	for i := range w.first {
		op := w.first[i]
		op.repeat = false // the first run executes
		if r := w.submit(c, &op); r.out != opOK {
			in.stop()
			return fmt.Errorf("earlier instance, job %d: %v", i, r.err)
		}
	}
	return in.stop()
}

// checkBoot confirms replay brought back every first run as done.
func (w *jobsRepeat) checkBoot(in *instance) error {
	c := newClient(in.url, 1)
	defer c.close()
	status, body, err := c.do("GET", "/v1/jobs", nil)
	if r := classify(status, body, err); r.out != opOK {
		return r.err
	}
	var list struct {
		Count int         `json:"count"`
		Jobs  []jobs.View `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return err
	}
	if list.Count != len(w.first) {
		return fmt.Errorf("replayed %d jobs, the earlier instance ran %d", list.Count, len(w.first))
	}
	for _, v := range list.Jobs {
		if v.State != jobs.StateDone {
			return fmt.Errorf("replayed job %s is %s, want done", v.ID, v.State)
		}
	}
	return nil
}

// submit posts one job and long-polls it to a terminal state. It checks
// the state and the cache flag; a repeat's result is compared here, a
// fresh one's is returned in the op's want slot for verify.
func (w *jobsRepeat) submit(c *client, op *jobOp) result {
	status, body, err := c.do("POST", "/v1/jobs", op.body)
	if status != 202 {
		if r := classify(status, body, err); r.out != opOK {
			return r
		}
	}
	var v jobs.View
	for {
		if err := json.Unmarshal(body, &v); err != nil {
			return failed("job reply: %v", err)
		}
		if v.State.Terminal() {
			break
		}
		status, body, err = c.do("GET", "/v1/jobs/"+v.ID+"?wait=30s", nil)
		if r := classify(status, body, err); r.out != opOK {
			return r
		}
	}
	if v.State != jobs.StateDone {
		return failed("job %s ended %s: %s", v.ID, v.State, v.Reason)
	}
	if v.CacheHit != op.repeat {
		return failed("job %s cache_hit=%v, want %v", v.ID, v.CacheHit, op.repeat)
	}
	got, err := json.Marshal(v.Result)
	if err != nil {
		return failed("job %s result: %v", v.ID, err)
	}
	if op.want != nil && !bytes.Equal(got, op.want) {
		return failed("job %s result differs from the direct run: got %.200s want %.200s", v.ID, got, op.want)
	}
	if op.want == nil {
		op.want = got
	}
	return ok()
}

func (w *jobsRepeat) do(c *client, i int) result {
	if i%2 == 0 {
		op := w.first[(i/2)%len(w.first)]
		return w.submit(c, &op)
	}
	op := jobOp{body: w.fresh[i/2].body}
	r := w.submit(c, &op)
	if r.out == opOK {
		w.mu.Lock()
		w.got[i/2] = sha256.Sum256(op.want)
		w.mu.Unlock()
	}
	return r
}

// verify compares every fresh job's served result with the direct run.
func (w *jobsRepeat) verify() (int, error) {
	idx := make([]int, 0, len(w.got))
	for i := range w.got {
		idx = append(idx, i)
	}
	bad := make([]error, len(idx))
	forEach(len(idx), func(k int) error {
		op := w.fresh[idx[k]]
		if err := op.expect(); err != nil {
			bad[k] = err
		} else if got := w.got[idx[k]]; sha256.Sum256(op.want) != got {
			bad[k] = fmt.Errorf("fresh job %d result differs from the direct run: got sha256 %x want %.200s",
				idx[k], got, op.want)
		}
		return nil
	})
	return countErrs(bad)
}

// countErrs returns how many errs are non-nil and the first of them.
func countErrs(errs []error) (int, error) {
	n := 0
	var first error
	for _, err := range errs {
		if err != nil {
			if first == nil {
				first = err
			}
			n++
		}
	}
	return n, first
}

// traceInputs samples one spec per kind from the fresh jobs.
func (w *jobsRepeat) traceInputs(rng *rand.Rand) traceSet {
	var specs []jobs.Spec
	for k := range jobKinds {
		n := (len(w.fresh) - k + len(jobKinds) - 1) / len(jobKinds)
		specs = append(specs, w.fresh[k+len(jobKinds)*rng.Intn(n)].spec())
	}
	return traceSet{specs: specs}
}
