package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deptree/internal/gen"
	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// BenchmarkJobSubmit times POST /v1/jobs through the handler on a
// 1000-row hotels relation: "fresh" submits to a new server and waits
// for the job to finish, so it pays fingerprint, queueing and the run;
// "cache-hit" resubmits a finished spec, which answers from the result
// cache and never reaches the queue.
//
//	go test ./internal/server -run '^$' -bench BenchmarkJobSubmit -count 10
func BenchmarkJobSubmit(b *testing.B) {
	var csv strings.Builder
	if err := relation.WriteCSV(gen.Hotels(gen.HotelConfig{Rows: 1000, Seed: 11, ErrorRate: 0.05}), &csv); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(JobRequest{Kind: "discover", Algo: "tane", CSV: csv.String()})
	if err != nil {
		b.Fatal(err)
	}
	submit := func(b *testing.B, s *Server, want int) jobs.View {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(body))))
		if rec.Code != want {
			b.Fatalf("submit = %d, want %d: %s", rec.Code, want, rec.Body)
		}
		var v jobs.View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			b.Fatal(err)
		}
		return v
	}
	wait := func(b *testing.B, s *Server, id string) {
		v, _ := s.Jobs().Wait(context.Background(), id, time.Minute)
		if v.State != jobs.StateDone {
			b.Fatalf("job %s = %s (%s)", id, v.State, v.Reason)
		}
	}

	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := New(Config{Workers: 1, Obs: obs.New()})
			b.StartTimer()
			wait(b, s, submit(b, s, http.StatusAccepted).ID)
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		s := New(Config{Workers: 1, Obs: obs.New()})
		defer s.Close()
		wait(b, s, submit(b, s, http.StatusAccepted).ID)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, s, http.StatusOK)
		}
	})
}
