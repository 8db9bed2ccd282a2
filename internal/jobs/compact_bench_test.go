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
	var buf bytes.Buffer
	if err := relation.WriteCSV(gen.Hotels(gen.HotelConfig{Rows: 1200, Seed: 1, VarietyRate: 0.1, ErrorRate: 0.05}), &buf); err != nil {
		b.Fatal(err)
	}
	const n = 300
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
	jobs := fold(recs)

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
