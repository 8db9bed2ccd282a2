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
// body: decodeBody on a discover request carrying a 5,000-row hotels
// CSV, the largest body the sync endpoints see (about 300 KB).
//
//	go test ./internal/server -run '^$' -bench BenchmarkDecodeBody -count 5
func BenchmarkDecodeBody(b *testing.B) {
	var csv strings.Builder
	src := gen.Hotels(gen.HotelConfig{Rows: 5000, Seed: 7, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.1})
	if err := relation.WriteCSV(src, &csv); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(DiscoverRequest{CSV: csv.String(), RunKnobs: RunKnobs{Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	req := httptest.NewRequest("POST", "/v1/discover/tane", nil)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Body = io.NopCloser(bytes.NewReader(body))
		var dst DiscoverRequest
		if e := s.decodeBody(httptest.NewRecorder(), req, &dst); e != nil {
			b.Fatal(e.msg)
		}
	}
}
