package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

// BenchmarkCompact times one online compaction of a log of finished
// jobs: snapshot the replayed jobs, then WALStore.Compact marshals,
// writes, fsyncs and renames the new log. Each of the 300 jobs was
// submitted with its own copy of one 1,200-row hotels CSV, the size of a
// mid-sized jobs-repeat job. B/compact is the size of the log written.
func BenchmarkCompact(b *testing.B) {
	jobs := fold(finishedJobs(b, 300, 1200))

	path := filepath.Join(b.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, WALOptions{SyncInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Replay(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Compact(snapshot(jobs)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "B/compact")
}

// BenchmarkReplay times a jobs server's restart on its log: open the
// WAL, replay and decode every record, and fold them into jobs. The log
// holds 20 finished jobs, each submitted with its own copy of one
// 1,000-row hotels CSV, as a jobs-repeat server leaves it between
// compactions. B/replay is the size of the log replayed.
func BenchmarkReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, WALOptions{SyncInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Replay(); err != nil {
		b.Fatal(err)
	}
	for _, rec := range finishedJobs(b, 20, 1000) {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := OpenWAL(path, WALOptions{SyncInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		recs, err := w.Replay()
		if err != nil {
			b.Fatal(err)
		}
		if len(fold(recs)) != 20 {
			b.Fatalf("replayed %d records into the wrong jobs", len(recs))
		}
		w.Close()
	}
	b.StopTimer()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "B/replay")
}

// finishedJobs returns the submit, start and done-result records of n
// jobs, each submitted with its own copy of one rows-row hotels CSV.
func finishedJobs(b *testing.B, n, rows int) []Record {
	var buf bytes.Buffer
	if err := relation.WriteCSV(gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 1, VarietyRate: 0.1, ErrorRate: 0.05}), &buf); err != nil {
		b.Fatal(err)
	}
	var recs []Record
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("j%06d", i)
		recs = append(recs,
			Record{Type: RecSubmit, ID: id, Seq: int64(i), Fingerprint: strings.Repeat("ab", 32),
				Spec: &Spec{Kind: "discover", Algo: "tane", CSV: buf.String()}},
			Record{Type: RecStart, ID: id, Attempt: 1},
			Record{Type: RecResult, ID: id, State: StateDone, Result: &Result{Lines: []string{"[address]->[region]"}}},
		)
	}
	return recs
}
