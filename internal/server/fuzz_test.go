package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deptree/internal/obs"
	"deptree/internal/stream"
)

// FuzzDiscoverRequest throws arbitrary bytes at every registered
// discover route and every stream route under tight server limits and
// asserts the hardening contract: the handler never panics, every
// rejection is a 4xx with a structured error body, and nothing reaches a
// 5xx (there is no engine fault to surface — only malformed or oversized
// input). The route is part of the fuzzed input: routeIdx indexes the
// fifteen discover routes followed by the four stream routes, modulo
// their count, so the corpus explores every endpoint and the fuzzer can
// shift any crashing body onto any route. A stream route may also answer
// 404 unknown_session (a body naming a session that does not exist) and
// 429 stream_sessions_exhausted (the fuzzed creates fill the session
// table).
func FuzzDiscoverRequest(f *testing.F) {
	// One well-formed seed per registered route, so every endpoint is in
	// the initial corpus, plus the malformed-body seeds on a spread of
	// routes.
	algos := Algorithms()
	for i := range algos {
		f.Add(`{"csv":"a,b\n1,2\n"}`, uint8(i))
	}
	f.Add(`{"csv":"a,b\n1,2\n","workers":2,"max_tasks":1}`, uint8(0))
	f.Add(`{"csv":""}`, uint8(1))
	f.Add(`{`, uint8(5))
	f.Add(`{"csv":"a\n1\n"}{"csv":"a\n1\n"}`, uint8(6))
	f.Add(`{"csv":"a,b\n1\n"}`, uint8(9))
	f.Add(`{"nope":true}`, uint8(11))
	f.Add(`{"csv":"`+strings.Repeat("x,", 40)+`y\n"}`, uint8(13))
	f.Add("\x00\xff\xfe", uint8(14))
	f.Add(`{"csv":"a,b\n\"unterminated`, uint8(255))
	// One create per stream route, then an append and a mismatched
	// header on the first session.
	streamAlgos := stream.Algorithms()
	for i := range streamAlgos {
		f.Add(`{"csv":"a,b\n1,2\n"}`, uint8(len(algos)+i))
	}
	f.Add(`{"csv":"a,b\n3,1\n","session":"s1"}`, uint8(len(algos)))
	f.Add(`{"csv":"b,a\n3,1\n","session":"s1","workers":2}`, uint8(len(algos)))

	s := New(Config{
		Workers:        2,
		MaxInputBytes:  4096,
		MaxRows:        64,
		MaxFieldBytes:  256,
		DefaultTimeout: 2 * time.Second,
		MaxTasks:       64,
		Obs:            obs.New(),
	})
	var routes []string
	for _, a := range algos {
		routes = append(routes, "/v1/discover/"+a)
	}
	for _, a := range streamAlgos {
		routes = append(routes, "/v1/stream/"+a)
	}

	f.Fuzz(func(t *testing.T, body string, routeIdx uint8) {
		route := routes[int(routeIdx)%len(routes)]
		req := httptest.NewRequest("POST", route, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req) // a panic here fails the fuzz run
		resp := w.Result()
		if resp.StatusCode >= 500 {
			t.Fatalf("%s: malformed input produced %d:\n%.200s", route, resp.StatusCode, w.Body.String())
		}
		if resp.StatusCode != 200 {
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
				t.Fatalf("%s: status %d without structured error body (%v):\n%.200s",
					route, resp.StatusCode, err, w.Body.String())
			}
			streamOK := strings.HasPrefix(route, "/v1/stream/") &&
				(resp.StatusCode == http.StatusNotFound && eb.Error.Code == "unknown_session" ||
					resp.StatusCode == http.StatusTooManyRequests && eb.Error.Code == "stream_sessions_exhausted")
			if resp.StatusCode != http.StatusBadRequest &&
				resp.StatusCode != http.StatusRequestEntityTooLarge && !streamOK {
				t.Fatalf("%s: unexpected rejection status %d (code %s)", route, resp.StatusCode, eb.Error.Code)
			}
		}
	})
}
