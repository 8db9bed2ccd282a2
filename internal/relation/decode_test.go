package relation_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

// hotelsCSVBytes renders a gen.Hotels relation of the given size the
// way the served workloads see it.
func hotelsCSVBytes(tb testing.TB, rows int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	r := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 7, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.1})
	if err := relation.WriteCSV(r, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// allocBytes returns the bytes ReadCSVAuto allocates decoding data.
func allocBytes(t *testing.T, data []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := relation.ReadCSVAuto("r", data, relation.Limits{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadCSVPresizeNoWorseThanLegitimate pins the decoder's column
// pre-sizing: an input that holds few rows in many bytes (blank lines,
// a field of quoted newlines) allocates no more than a legitimate
// one-column file of the same length with as many rows as it can hold.
func TestReadCSVPresizeNoWorseThanLegitimate(t *testing.T) {
	const n = 1 << 20
	legit := []byte("x\n" + strings.Repeat("x\n", n/2))
	r, err := relation.ReadCSVAuto("r", legit, relation.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != n/2 {
		t.Fatalf("legitimate file: %d rows, want %d", r.Rows(), n/2)
	}
	limit := allocBytes(t, legit)
	for name, data := range map[string][]byte{
		"blank lines":     []byte("x\n" + strings.Repeat("\n", n)),
		"quoted newlines": []byte("x\n\"" + strings.Repeat("\n", n-3) + "\"\n"),
	} {
		if len(data) != len(legit) {
			t.Fatalf("%s: %d bytes, legitimate file %d", name, len(data), len(legit))
		}
		// Blank lines pre-size exactly the legitimate file's column; the
		// 1% slack absorbs the few KB the runtime may allocate on its
		// own during a measurement.
		if got := allocBytes(t, data); got > limit+limit/100 {
			t.Errorf("%s: decoding allocated %d bytes, a legitimate file of the same length %d", name, got, limit)
		}
	}
}

// TestReadCSVAllocsBounded pins the decoder's allocations to a count
// that does not grow with rows: one copy of the input, the pre-sized
// columns and the schema. Every field is a substring of the copy.
func TestReadCSVAllocsBounded(t *testing.T) {
	const bound = 50
	for _, rows := range []int{500, 5000} {
		data := hotelsCSVBytes(t, rows)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := relation.ReadCSVAuto("hotels", data, relation.Limits{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("ReadCSVAuto made %.0f allocations for %d rows, want at most %d", allocs, rows, bound)
		}
	}
}

// TestWriteCSVAllocsBounded pins WriteCSV's allocations to a count that
// does not grow with rows: its one buffer, reused for every chunk.
func TestWriteCSVAllocsBounded(t *testing.T) {
	const bound = 2
	for _, rows := range []int{500, 5000} {
		r, err := relation.ReadCSVAuto("hotels", hotelsCSVBytes(t, rows), relation.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := relation.WriteCSV(r, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("WriteCSV made %.0f allocations for %d rows, want at most %d", allocs, rows, bound)
		}
	}
}

// TestWriteCSVAllocSizedToOutput pins WriteCSV's buffer to the size of
// what it writes: 500 hotels rows (about 28 KB of CSV) allocate at most
// 1.25 times their output bytes, not a fixed 64 KB chunk buffer.
func TestWriteCSVAllocSizedToOutput(t *testing.T) {
	const runs = 10
	r, err := relation.ReadCSVAuto("hotels", hotelsCSVBytes(t, 500), relation.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := relation.WriteCSV(r, &out); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := relation.WriteCSV(r, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(out.Len())*5/4; got > limit {
		t.Errorf("WriteCSV allocated %d bytes to write %d, want at most %d", got, out.Len(), limit)
	}
}

// BenchmarkReadCSV measures the parse layer in MB/s: ReadCSVAuto on the
// hotels CSV a served request carries, and ReadCSVLimits with fixed
// kinds on a stream append batch.
func BenchmarkReadCSV(b *testing.B) {
	for _, rows := range []int{500, 1500, 5000} {
		data := hotelsCSVBytes(b, rows)
		b.Run(fmt.Sprintf("auto/rows=%d", rows), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := relation.ReadCSVAuto("hotels", data, relation.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	data := hotelsCSVBytes(b, 200)
	r, err := relation.ReadCSVAuto("batch", data, relation.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	kinds := make([]relation.Kind, r.Cols())
	for c := range kinds {
		kinds[c] = r.Schema().Attr(c).Kind
	}
	b.Run("typed/rows=200", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relation.ReadCSVLimits("batch", bytes.NewReader(data), kinds, relation.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteCSV measures the render layer in MB/s of CSV written:
// WriteCSV of hotels decoded through ReadCSVAuto, whose numeric columns
// are floats, the relation a repair reply or a job fingerprint renders.
func BenchmarkWriteCSV(b *testing.B) {
	for _, rows := range []int{500, 1500, 5000} {
		data := hotelsCSVBytes(b, rows)
		r, err := relation.ReadCSVAuto("hotels", data, relation.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(r, &buf); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := relation.WriteCSV(r, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
