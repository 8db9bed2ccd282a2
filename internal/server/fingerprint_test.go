package server

import (
	"bytes"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/jobs"
	"deptree/internal/relation"
)

// goldenFingerprints pins the dataset fingerprint of fixed inputs. A
// replayed job WAL stores fingerprints inside its result-cache keys, so
// these digests must never move: a change here silently turns every
// persisted cache entry into a miss.
var goldenFingerprints = []struct {
	name, csv, want string
}{
	{"hotels-200-seed1", hotelsGolden(200, 1), "c6eed06f390c0f1180e1c53c6e85a0c880155ea40f5419f3a8cec11023530012"},
	{"hotels-1000-seed23", hotelsGolden(1000, 23), "f33e255adacd12c4259824417d827f23c641ed6d0a1337e2d0a5688004da1528"},
	// Quoted commas, a CRLF inside a quoted field (read back as "\n"),
	// doubled quotes, nulls and the numeric surface form "1.50".
	{"quoted", "name,price,note\n\"Smith, J\",1.50,\"a\r\nb\"\nLee,1.5,\n,2,\"say \"\"hi\"\"\"\n", "d32dbb27cc6f50b2d375a2a1b4cd00acf667745b9124312aefc5241e807353d2"},
	// The same relation with numbers in another surface form and LF only.
	{"quoted-canonical", "name,price,note\n\"Smith, J\",1.5,\"a\nb\"\nLee,1.500,\n,2.0,\"say \"\"hi\"\"\"\n", "d32dbb27cc6f50b2d375a2a1b4cd00acf667745b9124312aefc5241e807353d2"},
	// A lone empty column: every record is one field, some of them null,
	// which the writer must emit as an explicit "".
	{"lone-empty-column", "only\n\"\"\nx\n\"\"\n", "335230c087dd5887da903703c119bcd55d35bee80c415e07d95628ae29c8bf9b"},
	// A lone column whose header name is itself empty.
	{"lone-empty-header", "\"\"\nv\n\"\"\n", "5269674d985ffd3deb580a1bc5f40051a1c8eeabe478e926fd1eba305260485b"},
}

func hotelsGolden(rows int, seed int64) string {
	r := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: seed, ErrorRate: 0.05, VarietyRate: 0.1, DuplicateRate: 0.1})
	var buf bytes.Buffer
	if err := relation.WriteCSV(r, &buf); err != nil {
		panic(err)
	}
	return buf.String()
}

// TestFingerprintGolden checks both fingerprint paths against the pinned
// digests: Spec.Fingerprint, which parses the CSV itself, and
// FingerprintRelation over the relation the server's prepare step
// builds, which is what job submission hashes.
func TestFingerprintGolden(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, g := range goldenFingerprints {
		spec := jobs.Spec{Kind: "discover", Algo: "tane", CSV: g.csv}
		got, err := spec.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got != g.want {
			t.Errorf("%s: Spec.Fingerprint = %s, want %s", g.name, got, g.want)
		}
		tk, e := s.prepare("job", spec)
		if e != nil {
			t.Fatalf("%s: prepare: %v", g.name, e)
		}
		if got, err := jobs.FingerprintRelation(tk.rel); err != nil || got != g.want {
			t.Errorf("%s: FingerprintRelation(prepared) = %s, %v, want %s", g.name, got, err, g.want)
		}
	}
}
