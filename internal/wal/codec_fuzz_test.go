package wal_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"deptree/internal/jobs"
	"deptree/internal/stream"
	"deptree/internal/wal"
)

// split cuts s at sep, and returns nil for "" as a writer leaves an
// empty list.
func split(s, sep string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, sep)
}

// fuzzRecords builds one jobs and one stream record from fuzz input.
// flags selects which optional parts are set.
func fuzzRecords(s1, s2, s3 string, n1, n2 int64, bits uint64, flags byte) (jobs.Record, stream.WALRecord) {
	jr := jobs.Record{
		Type: jobs.RecordType(s1), ID: s2, Seq: n1, Fingerprint: s3, IdemKey: s1 + s2,
		CacheHit: flags&1 != 0, Attempt: int(n2), State: jobs.State(s3), Reason: s2,
	}
	if flags&2 != 0 {
		jr.Spec = &jobs.Spec{Kind: s1, Algo: s2, CSV: s3, FDs: s2 + s3, FD: s3 + s1,
			MaxErr: math.Float64frombits(bits), SampleRows: int(n2), SampleSeed: n1,
			Workers: int(n1), TimeoutMs: n2, MaxTasks: -n1}
	}
	if flags&4 != 0 {
		jr.Result = &jobs.Result{Lines: split(s3, "\n"), Report: s1, CSV: s2,
			Changes: split(s1, ";"), Partial: flags&8 != 0, Reason: s3}
	}
	sr := stream.WALRecord{Op: s1, Session: s2, Algo: s3, Names: split(s1, ","), Seq: int(n2)}
	if flags&16 != 0 {
		sr.Kinds = []int{int(n1), int(n2)}
	}
	// A batch row holds one cell per schema column, and a schema has at
	// least one: strings.Split never returns an empty row.
	for _, row := range split(s3, "\n") {
		sr.Cells = append(sr.Cells, strings.Split(row, ","))
	}
	return jr, sr
}

// FuzzRecordCodecMatchesJSON holds the binary record codec to the JSON
// codec it replaced, which stays here as the oracle. For jobs and
// stream records built from fuzz input, the binary round trip is byte-
// exact on any input (re-encoding the decoded record gives the same
// payload, and it deep-equals the record when no NaN hides equality),
// and on valid UTF-8, where JSON is lossless, it deep-equals the JSON
// round trip. Arbitrary payload bytes never panic Decode.
func FuzzRecordCodecMatchesJSON(f *testing.F) {
	f.Add("submit", "j000001-abababab", "a,b\n1,2\n", int64(1), int64(3), math.Float64bits(0.25), byte(0xff), []byte("\x01\x01\x06submit"))
	f.Add("batch", "s1", "s:x,n:1.5\n\x00null,n:-2", int64(-7), int64(1<<40), uint64(0), byte(16), []byte(`{"type":"start"}`))
	f.Add("\xff\xfe", "", "\xc3", int64(math.MinInt64), int64(math.MaxInt64), math.Float64bits(math.NaN()), byte(6), []byte{1, 2, 0x80})
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, n1, n2 int64, bits uint64, flags byte, payload []byte) {
		jr, sr := fuzzRecords(s1, s2, s3, n1, n2, bits, flags)
		utf := utf8.ValidString(s1) && utf8.ValidString(s2) && utf8.ValidString(s3)
		checkRoundTrip(t, &jr, new(jobs.Record), new(jobs.Record), utf)
		checkRoundTrip(t, &sr, new(stream.WALRecord), new(stream.WALRecord), utf)

		for _, p := range [][]byte{payload, append([]byte{wal.FormatBinary, byte(wal.KindJobs)}, payload...), append([]byte{wal.FormatBinary, byte(wal.KindStream)}, payload...)} {
			wal.Decode(p, new(jobs.Record))
			wal.Decode(p, new(stream.WALRecord))
		}
	})
}

// checkRoundTrip decodes rec's binary payload into bin, and when utf
// holds and JSON can encode rec, its JSON encoding into js.
func checkRoundTrip[P wal.Record](t *testing.T, rec, bin, js P, utf bool) {
	t.Helper()
	payload := wal.Encode(rec)
	if err := wal.Decode(payload, bin); err != nil {
		t.Fatalf("decode %q: %v", payload, err)
	}
	if again := wal.Encode(bin); !bytes.Equal(again, payload) {
		t.Fatalf("decoded record re-encodes to\n%q\nwant\n%q", again, payload)
	}
	p, err := json.Marshal(rec)
	if err != nil {
		// JSON cannot encode a NaN or infinite MaxErr; the byte check
		// above is the whole oracle then.
		return
	}
	if !reflect.DeepEqual(bin, rec) {
		t.Fatalf("binary round trip:\ngot  %+v\nwant %+v", bin, rec)
	}
	if !utf {
		return
	}
	if err := json.Unmarshal(p, js); err != nil {
		t.Fatalf("JSON oracle: %v", err)
	}
	if !reflect.DeepEqual(bin, js) {
		t.Fatalf("binary round trip differs from JSON's:\nbinary %+v\njson   %+v", bin, js)
	}
}
