package wal_test

import (
	"bytes"
	"encoding/json"
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
	var buf bytes.Buffer
	if err := relation.WriteCSV(gen.Hotels(gen.HotelConfig{Rows: 1000, Seed: 1, VarietyRate: 0.1, ErrorRate: 0.05}), &buf); err != nil {
		b.Fatal(err)
	}
	rec := jobs.Record{Type: jobs.RecSubmit, ID: "j000001-abababab", Seq: 1, Fingerprint: strings.Repeat("ab", 32),
		Spec: &jobs.Spec{Kind: "discover", Algo: "tane", CSV: buf.String(), Workers: 2, TimeoutMs: 5000}}
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
