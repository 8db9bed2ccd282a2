package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// envelopes makes a zero value of each request envelope decodeBody
// fills.
var envelopes = []func() envelope{
	func() envelope { return new(DiscoverRequest) },
	func() envelope { return new(ValidateRequest) },
	func() envelope { return new(RepairRequest) },
	func() envelope { return new(StreamRequest) },
	func() envelope { return new(JobRequest) },
}

// decodeCases are the encoding/json behaviours the scanner keeps. ok and
// want are what a DiscoverRequest decodes to; every case is also checked
// against encoding/json for all five envelopes.
var decodeCases = []struct {
	name string
	body string
	ok   bool
	want DiscoverRequest
}{
	{"plain", `{"csv":"a,b\n1,2\n","maxerr":0.5,"sample_rows":3,"sample_seed":-4,"workers":2,"timeout_ms":100,"max_tasks":7}`, true,
		DiscoverRequest{CSV: "a,b\n1,2\n", MaxErr: 0.5, SampleRows: 3, SampleSeed: -4,
			RunKnobs: RunKnobs{Workers: 2, TimeoutMs: 100, MaxTasks: 7}}},
	{"empty object", ` { } `, true, DiscoverRequest{}},
	{"spaced", " {\t\"csv\" :\r\n\"a\" , \"workers\" : 3 }\n", true, DiscoverRequest{CSV: "a", RunKnobs: RunKnobs{Workers: 3}}},
	{"key case", `{"CSV":"a","Workers":2}`, true, DiscoverRequest{CSV: "a", RunKnobs: RunKnobs{Workers: 2}}},
	{"key long s", "{\"c\u017fv\":\"a\"}", true, DiscoverRequest{CSV: "a"}},
	{"key kelvin", "{\"wor\u212aers\":2}", true, DiscoverRequest{RunKnobs: RunKnobs{Workers: 2}}},
	{"key escaped", `{"c\u0073v":"a","\u0043SV":"b"}`, true, DiscoverRequest{CSV: "b"}},
	{"key escaped long s", `{"c\u017fv":"a"}`, true, DiscoverRequest{CSV: "a"}},
	{"duplicate last wins", `{"csv":"a","csv":"b"}`, true, DiscoverRequest{CSV: "b"}},
	{"duplicate folded", `{"csv":"a","CSV":"b"}`, true, DiscoverRequest{CSV: "b"}},
	{"null field", `{"csv":null,"workers":null,"maxerr":null}`, true, DiscoverRequest{}},
	{"null keeps earlier", `{"csv":"a","csv":null}`, true, DiscoverRequest{CSV: "a"}},
	{"top-level null", ` null `, true, DiscoverRequest{}},
	{"unknown key", `{"csv":"a","nope":1}`, false, DiscoverRequest{}},
	{"embedded struct key", `{"RunKnobs":{"workers":1}}`, false, DiscoverRequest{}},
	{"unknown nested", `{"K":{"a":[1,{"b":null}]}}`, false, DiscoverRequest{}},
	{"int rejects fraction", `{"workers":1.0}`, false, DiscoverRequest{}},
	{"int rejects exponent", `{"workers":1e2}`, false, DiscoverRequest{}},
	{"int rejects string", `{"workers":"1"}`, false, DiscoverRequest{}},
	{"int accepts -0", `{"workers":-0,"max_tasks":-0}`, true, DiscoverRequest{}},
	{"int64 max", `{"max_tasks":9223372036854775807}`, true, DiscoverRequest{RunKnobs: RunKnobs{MaxTasks: 1<<63 - 1}}},
	{"int64 overflow", `{"max_tasks":9223372036854775808}`, false, DiscoverRequest{}},
	{"int rejects bool", `{"workers":true}`, false, DiscoverRequest{}},
	{"float overflow", `{"maxerr":1e400}`, false, DiscoverRequest{}},
	{"float underflow", `{"maxerr":1e-400}`, true, DiscoverRequest{}},
	{"float exponent", `{"maxerr":-2.5E+2}`, true, DiscoverRequest{MaxErr: -250}},
	{"float rejects string", `{"maxerr":"0.5"}`, false, DiscoverRequest{}},
	{"string rejects number", `{"csv":1}`, false, DiscoverRequest{}},
	{"string rejects array", `{"csv":["a"]}`, false, DiscoverRequest{}},
	{"string rejects object", `{"csv":{}}`, false, DiscoverRequest{}},
	{"invalid utf-8", "{\"csv\":\"a\xffb\xc0\x80\"}", true, DiscoverRequest{CSV: "a\ufffdb\ufffd\ufffd"}},
	{"encoded surrogate", "{\"csv\":\"\xed\xa0\x80\"}", true, DiscoverRequest{CSV: "\ufffd\ufffd\ufffd"}},
	{"valid multibyte", "{\"csv\":\"\u00e9\u20ac\U0001F600\ufffd\"}", true, DiscoverRequest{CSV: "\u00e9\u20ac\U0001F600\ufffd"}},
	{"lone high surrogate", `{"csv":"\ud800"}`, true, DiscoverRequest{CSV: "\ufffd"}},
	{"lone low surrogate", `{"csv":"\udc00x"}`, true, DiscoverRequest{CSV: "\ufffdx"}},
	{"surrogate pair", `{"csv":"\ud83d\ude00"}`, true, DiscoverRequest{CSV: "\U0001F600"}},
	{"low then pair", `{"csv":"\udc00\ud800\udc00"}`, true, DiscoverRequest{CSV: "\ufffd\U00010000"}},
	{"high then non-surrogate", `{"csv":"\ud800\u0041"}`, true, DiscoverRequest{CSV: "\ufffdA"}},
	{"high then high", `{"csv":"\ud800\ud800\udc00"}`, true, DiscoverRequest{CSV: "\ufffd\U00010000"}},
	{"short escape", `{"csv":"\u12"}`, false, DiscoverRequest{}},
	{"every escape", `{"csv":"\"\\\/\b\f\n\r\t\u0041\u00e9\u20AC\u0000"}`, true, DiscoverRequest{CSV: "\"\\/\b\f\n\r\tA\u00e9\u20ac\x00"}},
	{"html escapes", `{"csv":"\u003ca\u003e\u0026\u2028\u2029"}`, true, DiscoverRequest{CSV: "<a>&\u2028\u2029"}},
	{"bad escape", `{"csv":"\'"}`, false, DiscoverRequest{}},
	{"control byte", "{\"csv\":\"a\x01\"}", false, DiscoverRequest{}},
	{"raw newline", "{\"csv\":\"a\nb\"}", false, DiscoverRequest{}},
	{"trailing space", "{\"csv\":\"a\"} \n\t\r", true, DiscoverRequest{CSV: "a"}},
	{"trailing byte", `{"csv":"a"}x`, false, DiscoverRequest{}},
	{"trailing value", `{"csv":"a"}{}`, false, DiscoverRequest{}},
	{"null then value", `null null`, false, DiscoverRequest{}},
	{"trailing comma", `{"csv":"a",}`, false, DiscoverRequest{}},
	{"missing colon", `{"csv" "a"}`, false, DiscoverRequest{}},
	{"leading zero", `{"workers":01}`, false, DiscoverRequest{}},
	{"bare minus", `{"workers":-}`, false, DiscoverRequest{}},
	{"bare point", `{"maxerr":1.}`, false, DiscoverRequest{}},
	{"leading point", `{"maxerr":.5}`, false, DiscoverRequest{}},
	{"plus sign", `{"maxerr":+1}`, false, DiscoverRequest{}},
	{"bare exponent", `{"maxerr":1e}`, false, DiscoverRequest{}},
	{"unterminated", `{"csv":"a`, false, DiscoverRequest{}},
	{"open object", `{`, false, DiscoverRequest{}},
	{"empty", ``, false, DiscoverRequest{}},
	{"blank", " \n", false, DiscoverRequest{}},
	{"array", `[]`, false, DiscoverRequest{}},
	{"string", `"csv"`, false, DiscoverRequest{}},
	{"number", `1`, false, DiscoverRequest{}},
	{"truncated null", `nul`, false, DiscoverRequest{}},
	{"null suffix", `{"csv":nullx}`, false, DiscoverRequest{}},
	{"byte order mark", "\xef\xbb\xbf{}", false, DiscoverRequest{}},
}

// oracle decodes body into dst as the server once did: encoding/json
// with unknown fields disallowed and nothing but whitespace after the
// value.
func oracle(body string, dst any) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data")
	}
	return nil
}

// checkAgainstOracle decodes body into every envelope with decodeBody
// and with the oracle and fails unless both accept or both reject, with
// equal results when they accept.
func checkAgainstOracle(t *testing.T, s *Server, body string) {
	t.Helper()
	for _, mk := range envelopes {
		got, want := mk(), mk()
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		e := s.decodeBody(httptest.NewRecorder(), req, got)
		err := oracle(body, want)
		if (e == nil) != (err == nil) {
			t.Fatalf("%T %q: decodeBody error %v, encoding/json error %v", got, body, e, err)
		}
		if e == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T %q: decodeBody %+v, encoding/json %+v", got, body, got, want)
		}
	}
}

func TestDecodeBodyCases(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			var got DiscoverRequest
			req := httptest.NewRequest("POST", "/v1/discover/tane", strings.NewReader(c.body))
			e := s.decodeBody(httptest.NewRecorder(), req, &got)
			if ok := e == nil; ok != c.ok {
				t.Fatalf("accepted = %v, want %v (%v)", ok, c.ok, e)
			}
			if e != nil && (e.status != http.StatusBadRequest || e.code != "bad_request") {
				t.Fatalf("rejection %d %s, want 400 bad_request", e.status, e.code)
			}
			if c.ok && !reflect.DeepEqual(got, c.want) {
				t.Fatalf("decoded %+v, want %+v", got, c.want)
			}
			checkAgainstOracle(t, s, c.body)
		})
	}
}

// FuzzDecodeBodyMatchesJSON checks the body scanner against
// encoding/json: for any body within the bound and each of the five
// request envelopes, decodeBody accepts exactly when encoding/json (with
// DisallowUnknownFields and the trailing-EOF check) does, and both
// decode the same struct.
func FuzzDecodeBodyMatchesJSON(f *testing.F) {
	for _, c := range decodeCases {
		f.Add(c.body)
	}
	f.Add(`{"kind":"discover","algo":"tane","csv":"a\n1\n","fds":"a->b","fd":"a->b","session":"s1"}`)
	s := New(Config{Workers: 1})
	defer s.Close()
	f.Fuzz(func(t *testing.T, body string) {
		checkAgainstOracle(t, s, body)
	})
}

// TestFieldTablesMatchJSONTags holds each envelope's field table to its
// json tags: one entry per tagged field, promoted RunKnobs fields
// included, each pointing at the struct field the tag names with the
// field's type.
func TestFieldTablesMatchJSONTags(t *testing.T) {
	for _, mk := range envelopes {
		dst := mk()
		v := reflect.ValueOf(dst).Elem()
		want := map[string]reflect.Value{}
		var walk func(v reflect.Value)
		walk = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				sf := v.Type().Field(i)
				tag, ok := sf.Tag.Lookup("json")
				if sf.Anonymous && !ok {
					walk(v.Field(i))
					continue
				}
				want[strings.Split(tag, ",")[0]] = v.Field(i).Addr()
			}
		}
		walk(v)
		fs := dst.fields()
		if len(fs) != len(want) {
			t.Errorf("%T: %d table entries, %d json-tagged fields", dst, len(fs), len(want))
		}
		for _, f := range fs {
			addr, ok := want[f.name]
			if !ok {
				t.Errorf("%T: table entry %q names no json tag", dst, f.name)
				continue
			}
			p := reflect.ValueOf(f.ptr)
			if p.Type() != addr.Type() || p.Pointer() != addr.Pointer() {
				t.Errorf("%T: %q points at a %v, not the tagged %v field", dst, f.name, p.Type(), addr.Type())
			}
		}
	}
}

// readerFunc adapts a function to io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestDecodeBodyTooLarge pins the two 413 cases: a declared
// Content-Length over the bound is refused before the body is read, and
// a body over the bound is refused even when its first JSON value fits
// within it.
func TestDecodeBodyTooLarge(t *testing.T) {
	s := New(Config{Workers: 1, MaxInputBytes: 1024})
	defer s.Close()
	limit := s.cfg.MaxInputBytes + 64<<10
	for _, route := range []string{"/v1/discover/tane", "/v1/validate", "/v1/repair", "/v1/stream/tane", "/v1/jobs"} {
		req := httptest.NewRequest("POST", route, nil)
		req.ContentLength = limit + 1
		req.Body = io.NopCloser(readerFunc(func([]byte) (int, error) {
			t.Errorf("%s: body read despite a declared length over the bound", route)
			return 0, io.EOF
		}))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge || errCode(t, w.Body.Bytes()) != "input_too_large" {
			t.Fatalf("%s with Content-Length %d: %d %s, want 413 input_too_large", route, limit+1, w.Code, w.Body)
		}
	}

	value := `{"csv":"a\n1\n"}`
	for _, tail := range []string{strings.Repeat(" ", int(limit)), `{}` + strings.Repeat(" ", int(limit))} {
		for _, declared := range []bool{true, false} {
			req := httptest.NewRequest("POST", "/v1/discover/tane", strings.NewReader(value+tail))
			if !declared {
				req.ContentLength = -1
			}
			var dst DiscoverRequest
			e := s.decodeBody(httptest.NewRecorder(), req, &dst)
			if e == nil || e.status != http.StatusRequestEntityTooLarge || e.code != "input_too_large" {
				t.Fatalf("value then %d trailing bytes (declared %v): %v, want 413 input_too_large", len(tail), declared, e)
			}
		}
	}
	// Exactly at the bound is accepted, whatever length is declared.
	body := value + strings.Repeat(" ", int(limit)-len(value))
	for _, declared := range []int64{-1, 0, 10, int64(len(body)), limit} {
		req := httptest.NewRequest("POST", "/v1/discover/tane", strings.NewReader(body))
		req.ContentLength = declared
		var dst DiscoverRequest
		if e := s.decodeBody(httptest.NewRecorder(), req, &dst); e != nil || dst.CSV != "a\n1\n" {
			t.Fatalf("body at the bound, declared %d: %v, csv %q", declared, e, dst.CSV)
		}
	}
}

// TestReadBodyAllocatesWithinBound checks the buffer readBody sizes from
// a declared length: the declared length plus one when it is within the
// bound, never more than the bound.
func TestReadBodyAllocatesWithinBound(t *testing.T) {
	const limit = 4096
	for _, c := range []struct {
		declared int64
		body     int
		wantCap  int
	}{
		{declared: 100, body: 100, wantCap: 101},
		{declared: limit, body: limit, wantCap: limit},
		{declared: limit - 1, body: limit - 1, wantCap: limit},
	} {
		b, err := readBody(strings.NewReader(strings.Repeat("x", c.body)), c.declared, limit)
		if err != nil || len(b) != c.body || cap(b) != c.wantCap {
			t.Fatalf("declared %d, body %d: len %d cap %d err %v, want len %d cap %d",
				c.declared, c.body, len(b), cap(b), err, c.body, c.wantCap)
		}
	}
	_, err := readBody(strings.NewReader(strings.Repeat("x", limit+1)), -1, limit)
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		t.Fatalf("body one byte over the bound: %v, want MaxBytesError", err)
	}
}
