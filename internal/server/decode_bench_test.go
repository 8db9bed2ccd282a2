package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

// BenchmarkDecodeBody measures the request-decode layer in MB/s of
// body: decodeBody on the bodies the served routes see, each carrying a
// hotels CSV. discover-5000 is the largest sync body (about 300 KB);
// discover-500 a small sync body, job-2000 the largest jobs-repeat
// submission, stream-200 one stream append batch. Each request declares
// its Content-Length, as an HTTP client sends it.
//
//	go test ./internal/server -run '^$' -bench BenchmarkDecodeBody -count 5
func BenchmarkDecodeBody(b *testing.B) {
	hotels := func(rows int) string {
		var csv strings.Builder
		src := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 7, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.1})
		if err := relation.WriteCSV(src, &csv); err != nil {
			b.Fatal(err)
		}
		return csv.String()
	}
	cases := []struct {
		name string
		req  envelope
		mk   func() envelope
	}{
		{"discover-5000", &DiscoverRequest{CSV: hotels(5000), RunKnobs: RunKnobs{Workers: 1}},
			func() envelope { return new(DiscoverRequest) }},
		{"discover-500", &DiscoverRequest{CSV: hotels(500), RunKnobs: RunKnobs{Workers: 1}},
			func() envelope { return new(DiscoverRequest) }},
		{"job-2000", &JobRequest{Kind: "validate", CSV: hotels(2000), FDs: "address->region", RunKnobs: RunKnobs{Workers: 1}},
			func() envelope { return new(JobRequest) }},
		{"stream-200", &StreamRequest{CSV: hotels(200), Session: "s1"},
			func() envelope { return new(StreamRequest) }},
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, c := range cases {
		body, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			req := httptest.NewRequest("POST", "/v1/jobs", nil)
			req.ContentLength = int64(len(body))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Body = io.NopCloser(bytes.NewReader(body))
				if e := s.decodeBody(httptest.NewRecorder(), req, c.mk()); e != nil {
					b.Fatal(e.msg)
				}
			}
		})
	}
}
