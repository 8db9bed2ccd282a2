package wal_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/jobs"
	"deptree/internal/relation"
	"deptree/internal/wal"
)

// BenchmarkRecordCodec times the binary record codec against the JSON
// codec it replaced (kept here as the oracle) on a submit record
// carrying a 1,000-row hotels CSV, the record whose replay dominates a
// jobs server's restart. B/op and allocs/op compare the two directly.
func BenchmarkRecordCodec(b *testing.B) {
	rec := hotelsSubmit(b)
	bin := wal.Encode(&rec)
	js, err := json.Marshal(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary/encode", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		for i := 0; i < b.N; i++ {
			sinkBytes = wal.Encode(&rec)
		}
	})
	b.Run("binary/decode", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		for i := 0; i < b.N; i++ {
			var got jobs.Record
			if err := wal.Decode(bin, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/encode", func(b *testing.B) {
		b.SetBytes(int64(len(js)))
		for i := 0; i < b.N; i++ {
			sinkBytes, _ = json.Marshal(rec)
		}
	})
	b.Run("json/decode", func(b *testing.B) {
		b.SetBytes(int64(len(js)))
		for i := 0; i < b.N; i++ {
			var got jobs.Record
			if err := json.Unmarshal(js, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var sinkBytes []byte

// hotelsSubmit is a submit record carrying a 1,000-row hotels CSV (about
// 56 KB).
func hotelsSubmit(tb testing.TB) jobs.Record {
	var buf bytes.Buffer
	if err := relation.WriteCSV(gen.Hotels(gen.HotelConfig{Rows: 1000, Seed: 1, VarietyRate: 0.1, ErrorRate: 0.05}), &buf); err != nil {
		tb.Fatal(err)
	}
	return jobs.Record{Type: jobs.RecSubmit, ID: "j000001-abababab", Seq: 1, Fingerprint: strings.Repeat("ab", 32),
		Spec: &jobs.Spec{Kind: "discover", Algo: "tane", CSV: buf.String(), Workers: 2, TimeoutMs: 5000}}
}

// openJobsStore opens a replayed, fsync-free jobs store in a temp dir.
func openJobsStore(tb testing.TB) *wal.Store[jobs.Record, *jobs.Record] {
	st, err := wal.OpenStore[jobs.Record](filepath.Join(tb.TempDir(), "jobs.wal"), wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	if err := st.Replay(nil); err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkStoreAppend times one Store.Append of the hotels submit:
// encode, frame and write, without fsync.
func BenchmarkStoreAppend(b *testing.B) {
	rec := hotelsSubmit(b)
	st := openJobsStore(b)
	b.SetBytes(int64(len(wal.Encode(&rec))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStoreAppendCopiesPayloadOnce bounds the bytes Store.Append
// allocates for the hotels submit: the payload is encoded straight into
// its frame, so an append allocates about one payload (57,680 B). The
// bound is 60% of the 115,008 B that encoding and then framing a copy
// took.
func TestStoreAppendCopiesPayloadOnce(t *testing.T) {
	rec := hotelsSubmit(t)
	st := openJobsStore(t)
	const appends, limit = 20, 115_008 * 6 / 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / appends; perOp > limit {
		t.Fatalf("Store.Append allocates %d B per hotels submit, want at most %d", perOp, limit)
	}
}
