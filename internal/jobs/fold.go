package jobs

// cancelReason is the reason every cancelled job carries, whether the
// cancel caught it queued or running, so the state a cancel record
// replays to is the state the live manager showed.
const cancelReason = "cancelled by client"

// fold applies a record sequence to job states: the one reduction behind
// Manager replay, the online compactor and FoldRecords. The first submit
// of an ID wins; a record for an unknown ID is dropped; attempt and retry
// counters always apply, but a terminal job never changes state again,
// and it keeps no CSV, as in the live manager. It returns the jobs in
// submission order, without their runtime fields (done channel,
// timestamps).
func fold(recs []Record) []*job {
	byID := make(map[string]*job)
	var order []*job
	for _, rec := range recs {
		j := byID[rec.ID]
		if rec.Type == RecSubmit {
			if j != nil || rec.Spec == nil {
				continue // duplicate or malformed: first submit wins
			}
			j = &job{
				id: rec.ID, seq: rec.Seq, spec: *rec.Spec,
				fingerprint: rec.Fingerprint, idemKey: rec.IdemKey,
				cacheHit: rec.CacheHit, state: StateQueued,
			}
			if rec.CacheHit && rec.Result != nil {
				// A cache hit is answered in its own submit record.
				j.state, j.result = StateDone, rec.Result
			}
			byID[rec.ID] = j
			order = append(order, j)
			continue
		}
		if j == nil {
			continue
		}
		switch rec.Type {
		case RecStart:
			j.attempts = rec.Attempt
			if !j.state.Terminal() {
				j.state = StateRunning
			}
		case RecRetry:
			j.retries = rec.Attempt
		case RecResult:
			if !j.state.Terminal() {
				j.state, j.result, j.reason = rec.State, rec.Result, rec.Reason
				j.spec.CSV = ""
			}
		case RecCancel:
			if !j.state.Terminal() {
				j.state, j.reason = StateCancelled, cancelReason
				j.spec.CSV = ""
			}
		}
	}
	return order
}

// snapshot emits the minimal record set that folds back to the given job
// states: one submit per job, its surviving attempt and retry counters
// (a finished job's too, so its Attempts survives compaction),
// and its terminal transition — a cancel record for a cancelled job or
// for a pending cancel request, whose own record may still be in flight,
// so a replay cancels instead of re-running. A terminal job's submit
// carries no CSV, since its job dropped it. Each submit holds its own
// copy of the spec: the store may marshal it after the caller releases
// the manager's lock.
func snapshot(jobs []*job) []Record {
	var out []Record
	for _, j := range jobs {
		spec := j.spec
		out = append(out, Record{
			Type: RecSubmit, ID: j.id, Seq: j.seq, Spec: &spec,
			Fingerprint: j.fingerprint, IdemKey: j.idemKey, CacheHit: j.cacheHit,
		})
		if j.attempts > 0 {
			out = append(out, Record{Type: RecStart, ID: j.id, Attempt: j.attempts})
		}
		if j.retries > 0 {
			out = append(out, Record{Type: RecRetry, ID: j.id, Attempt: j.retries})
		}
		switch {
		case j.state == StateCancelled, j.cancelRequested && !j.state.Terminal():
			out = append(out, Record{Type: RecCancel, ID: j.id})
		case j.state.Terminal():
			out = append(out, Record{Type: RecResult, ID: j.id, State: j.state, Result: j.result, Reason: j.reason})
		}
	}
	return out
}

// FoldRecords reduces a replayed record sequence to the minimal record
// set that reconstructs the same job states — the snapshot the online
// compactor writes — so `deptool fsck -compact` can compact a jobs WAL
// offline without constructing a Manager.
func FoldRecords(recs []Record) []Record {
	return snapshot(fold(recs))
}
