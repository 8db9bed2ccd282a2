package relation

import (
	"errors"
	"strings"
	"testing"
)

const hotelsCSV = "name,city,stars\nAstoria,Wien,4\nHilton,Wien,5\nSacher,Wien,5\n"

func wantTooLarge(t *testing.T, err error, what string) {
	t.Helper()
	var tl *ErrInputTooLarge
	if !errors.As(err, &tl) {
		t.Fatalf("err = %v, want *ErrInputTooLarge", err)
	}
	if tl.What != what {
		t.Fatalf("ErrInputTooLarge.What = %q, want %q", tl.What, what)
	}
	if tl.Got <= tl.Limit {
		t.Fatalf("ErrInputTooLarge Got %d <= Limit %d", tl.Got, tl.Limit)
	}
}

func TestReadCSVLimitsUnlimitedZeroValue(t *testing.T) {
	r, err := ReadCSVLimits("hotels", strings.NewReader(hotelsCSV), nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 3 || r.Cols() != 3 {
		t.Fatalf("got %dx%d, want 3x3", r.Rows(), r.Cols())
	}
	if !(Limits{}).Unlimited() {
		t.Fatal("zero Limits not Unlimited")
	}
}

func TestReadCSVLimitsMaxRows(t *testing.T) {
	if _, err := ReadCSVLimits("hotels", strings.NewReader(hotelsCSV), nil, Limits{MaxRows: 2}); err == nil {
		t.Fatal("MaxRows=2 accepted 3 rows")
	} else {
		wantTooLarge(t, err, "rows")
	}
	if r, err := ReadCSVLimits("hotels", strings.NewReader(hotelsCSV), nil, Limits{MaxRows: 3}); err != nil || r.Rows() != 3 {
		t.Fatalf("MaxRows=3 rejected exactly-3-row input: %v", err)
	}
}

func TestReadCSVLimitsMaxFieldBytes(t *testing.T) {
	if _, err := ReadCSVLimits("hotels", strings.NewReader(hotelsCSV), nil, Limits{MaxFieldBytes: 6}); err == nil {
		t.Fatal("MaxFieldBytes=6 accepted field \"Astoria\"")
	} else {
		wantTooLarge(t, err, "field bytes")
	}
	// The header is bounded too.
	if _, err := ReadCSVLimits("hotels", strings.NewReader(hotelsCSV), nil, Limits{MaxFieldBytes: 3}); err == nil {
		t.Fatal("MaxFieldBytes=3 accepted header column \"name\"")
	} else {
		wantTooLarge(t, err, "field bytes")
	}
}

func TestReadCSVLimitsMaxBytes(t *testing.T) {
	if _, err := ReadCSVLimits("hotels", strings.NewReader(hotelsCSV), nil, Limits{MaxBytes: 20}); err == nil {
		t.Fatal("MaxBytes=20 accepted a longer input")
	} else {
		wantTooLarge(t, err, "bytes")
	}
	lim := Limits{MaxBytes: int64(len(hotelsCSV))}
	if r, err := ReadCSVLimits("hotels", strings.NewReader(hotelsCSV), nil, lim); err != nil || r.Rows() != 3 {
		t.Fatalf("MaxBytes == len(input) rejected input: %v", err)
	}
}

func TestEffectiveMaxRowsCeiling(t *testing.T) {
	cases := []struct {
		maxRows int
		want    int
	}{
		{0, MaxSupportedRows},                    // zero value: the ceiling still applies
		{-1, MaxSupportedRows},                   // negative: treated as unset
		{2, 2},                                   // tighter bounds stay in force
		{MaxSupportedRows, MaxSupportedRows},     // exactly the ceiling
		{MaxSupportedRows + 7, MaxSupportedRows}, // looser than representable: clamped
	}
	for _, tc := range cases {
		if got := (Limits{MaxRows: tc.maxRows}).effectiveMaxRows(); got != tc.want {
			t.Errorf("Limits{MaxRows: %d}.effectiveMaxRows() = %d, want %d", tc.maxRows, got, tc.want)
		}
	}
}

func TestAppendRejectsRowsPastCeiling(t *testing.T) {
	// A 2³¹-row relation cannot be materialized in a test, so forge the
	// row counter: Append must reject the first unrepresentable row with
	// the same typed error the CSV readers use.
	r := New("huge", NewSchema(Attribute{Name: "a", Kind: KindString}))
	r.cols[0] = []Value{} // storage stays empty; only the counter matters
	r.rows = MaxSupportedRows
	err := r.Append([]Value{String("x")})
	if err == nil {
		t.Fatal("Append accepted row past MaxSupportedRows")
	}
	wantTooLarge(t, err, "rows")
	if r.Rows() != MaxSupportedRows {
		t.Fatalf("rejected Append mutated row count: %d", r.Rows())
	}
}

func TestReadCSVAutoInfersKinds(t *testing.T) {
	r, err := ReadCSVAuto("hotels", []byte(hotelsCSV), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if k := r.Schema().Attr(0).Kind; k != KindString {
		t.Fatalf("column name kind = %v, want string", k)
	}
	if k := r.Schema().Attr(2).Kind; k != KindFloat {
		t.Fatalf("column stars kind = %v, want float", k)
	}
	if _, err := ReadCSVAuto("hotels", []byte(hotelsCSV), Limits{MaxBytes: 10}); err == nil {
		t.Fatal("ReadCSVAuto ignored MaxBytes")
	} else {
		wantTooLarge(t, err, "bytes")
	}
}

// TestReadCSVAutoMatchesTwoPass pins the one-pass ReadCSVAuto to the
// oracle's two-pass inference: identical errors (text, and for oversized
// input the typed bound, limit and observed value) on malformed and
// oversized input, and identical kinds and cells otherwise.
func TestReadCSVAutoMatchesTwoPass(t *testing.T) {
	cases := []struct {
		name string
		data string
		lim  Limits
	}{
		{"empty", "", Limits{}},
		{"header only", "a,b\n", Limits{}},
		{"duplicate header", "a,a\n1,2\n", Limits{}},
		{"duplicate header before bad row", "a,a\n1\n", Limits{}},
		{"short row", "a,b\n1,2\n3\n", Limits{}},
		{"long row", "a,b\n1,2\n3,4,5\n", Limits{}},
		{"unterminated quote", "a,b\n1,\"2\n", Limits{}},
		{"bare quote", "a,b\n1,x\"y\n", Limits{}},
		{"bytes over limit", hotelsCSV, Limits{MaxBytes: 20}},
		{"bytes at limit", hotelsCSV, Limits{MaxBytes: int64(len(hotelsCSV))}},
		{"rows over limit", hotelsCSV, Limits{MaxRows: 2}},
		{"rows over limit after bad row", "a\n1\n2\n3,4\n", Limits{MaxRows: 1}},
		{"header field over limit", hotelsCSV, Limits{MaxFieldBytes: 3}},
		{"row field over limit", hotelsCSV, Limits{MaxFieldBytes: 6}},
		{"inference", "s,f,n,m\nx,1,,NaN\ny,2.5,,-0\n,1e3,,inf\nz,-4,,0x1p-2\n", Limits{}},
		{"numeric then string", "a,b\n1,2\n3,x\n", Limits{}},
		{"quoted CR before LF", "a\n\"x\r\r\ny\"\n", Limits{}},
		{"CRLF line ends and blank lines", "a,b\r\n\r\n1,x\r\n\n2,\r\n", Limits{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, gotErr := ReadCSVAuto("r", []byte(tc.data), tc.lim)
			want, wantErr := oracleReadCSVAuto("r", []byte(tc.data), tc.lim)
			checkMatchesOracle(t, got, gotErr, want, wantErr)
		})
	}
}

// TestFoldCRLFLinear pins the CRLF fold to one pass: the oracle's
// foldCRLF folds a long run of "\r" before "\n" to a single "\n" with one
// allocation, and the decoder reads a 1 MiB such field back promptly.
func TestFoldCRLFLinear(t *testing.T) {
	cases := map[string]string{
		"a\r\nb":       "a\nb",
		"a\r\r\r\nb":   "a\nb",
		"a\rb\r":       "a\rb\r",
		"\r\n\r\r\n\r": "\n\n\r",
		"plain":        "plain",
	}
	for in, want := range cases {
		rec := []string{in}
		if foldCRLF(rec); rec[0] != want {
			t.Errorf("foldCRLF(%q) = %q, want %q", in, rec[0], want)
		}
	}
	long := strings.Repeat("\r", 4096) + "\n"
	if allocs := testing.AllocsPerRun(10, func() { foldCRLF([]string{long}) }); allocs > 1 {
		t.Fatalf("foldCRLF allocated %v times on one field, want 1", allocs)
	}
	data := "a\n\"x" + strings.Repeat("\r", 1<<20) + "\ny\"\n"
	r, err := ReadCSVAuto("r", []byte(data), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Value(0, 0).Str(); got != "x\ny" {
		t.Fatalf("field = %q (len %d), want %q", got[:min(len(got), 16)], len(got), "x\ny")
	}
}
