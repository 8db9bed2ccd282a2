package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// oracleReadCSVLimits is the two-stage reader the one-pass decoder
// replaced, kept as its reference: a streaming csv.Reader row loop that
// parses each record into a row of Values and appends it through
// Relation.Append. It shares only the byte bound (limitedReader), the
// field bound (checkFields) and the CRLF fold (foldCRLF) with the
// decoder, each pinned by its own tests.
func oracleReadCSVLimits(name string, src io.Reader, kinds []Kind, lim Limits) (*Relation, error) {
	if lim.MaxBytes > 0 {
		src = &limitedReader{src: src, max: lim.MaxBytes}
	}
	cr := csv.NewReader(src)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read CSV header: %w", err)
	}
	if err := checkFields(header, lim); err != nil {
		return nil, err
	}
	foldCRLF(header)
	if kinds == nil {
		kinds = make([]Kind, len(header))
	}
	if len(kinds) != len(header) {
		return nil, fmt.Errorf("relation: %d kinds for %d header columns", len(kinds), len(header))
	}
	attrs := make([]Attribute, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		if seen[h] {
			return nil, fmt.Errorf("relation: duplicate CSV header column %q", h)
		}
		seen[h] = true
		attrs[i] = Attribute{Name: h, Kind: kinds[i]}
	}
	r := New(name, NewSchema(attrs...))
	row := make([]Value, len(header))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *ErrInputTooLarge
			if errors.As(err, &tooLarge) {
				return nil, fmt.Errorf("relation: read CSV line %d: %w", line, tooLarge)
			}
			return nil, fmt.Errorf("relation: read CSV line %d: %w", line, err)
		}
		if maxRows := lim.effectiveMaxRows(); line-1 > maxRows {
			return nil, fmt.Errorf("relation: read CSV: %w",
				&ErrInputTooLarge{What: "rows", Limit: int64(maxRows), Got: int64(line - 1)})
		}
		if err := checkFields(rec, lim); err != nil {
			return nil, err
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, want %d", line, len(rec), len(header))
		}
		foldCRLF(rec)
		for c, field := range rec {
			v, err := Parse(field, kinds[c])
			if err != nil {
				return nil, fmt.Errorf("relation: CSV line %d column %s: %w", line, header[c], err)
			}
			row[c] = v
		}
		if err := r.Append(row); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// oracleReadCSVAuto is the two-pass inference the one-pass decoder
// replaced: decode every column as strings, then walk each column
// again, parsing its non-null cells as floats, and rewrite the columns
// that parsed throughout as KindFloat.
func oracleReadCSVAuto(name string, data []byte, lim Limits) (*Relation, error) {
	if lim.MaxBytes > 0 && int64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("relation: read CSV: %w",
			&ErrInputTooLarge{What: "bytes", Limit: lim.MaxBytes, Got: int64(len(data))})
	}
	raw, err := oracleReadCSVLimits(name, bytes.NewReader(data), nil, lim)
	if err != nil {
		return nil, err
	}
	attrs := make([]Attribute, raw.Cols())
	nums := make([]float64, raw.Rows())
	for c := range attrs {
		attrs[c] = Attribute{Name: raw.schema.Attr(c).Name, Kind: KindFloat}
		col := raw.cols[c]
		for row, v := range col {
			if v.IsNull() {
				continue
			}
			f, err := strconv.ParseFloat(v.Str(), 64)
			if err != nil {
				attrs[c].Kind = KindString
				break
			}
			nums[row] = f
		}
		if attrs[c].Kind == KindFloat {
			for row, v := range col {
				if v.IsNull() {
					col[row] = Null(KindFloat)
				} else {
					col[row] = Float(nums[row])
				}
			}
		}
	}
	raw.schema = NewSchema(attrs...)
	return raw, nil
}

// checkMatchesOracle fails unless a decode agrees with the oracle's: the
// same error text (and, for an oversized input, the same typed bound),
// or the same schema and the same cells, float payloads compared by bits
// ("NaN" parses to a NaN unequal to itself).
func checkMatchesOracle(t *testing.T, got *Relation, gotErr error, want *Relation, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("err = %v, want %v", gotErr, wantErr)
	}
	if wantErr != nil {
		var g, w *ErrInputTooLarge
		if errors.As(gotErr, &g) != errors.As(wantErr, &w) || g != nil && *g != *w {
			t.Fatalf("typed error = %#v, want %#v", g, w)
		}
		return
	}
	if got.Name() != want.Name() || got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s %dx%d, want %s %dx%d", got.Name(), got.Rows(), got.Cols(), want.Name(), want.Rows(), want.Cols())
	}
	for c := 0; c < want.Cols(); c++ {
		if g, w := got.Schema().Attr(c), want.Schema().Attr(c); g != w {
			t.Fatalf("attr %d = %+v, want %+v", c, g, w)
		}
		for row := 0; row < want.Rows(); row++ {
			g, w := got.Value(row, c), want.Value(row, c)
			if g.Kind() != w.Kind() || g.IsNull() != w.IsNull() || g.Str() != w.Str() ||
				math.Float64bits(g.Num()) != math.Float64bits(w.Num()) {
				t.Fatalf("cell (%d,%d) = %#v, want %#v", row, c, g, w)
			}
		}
	}
}

// checkAppenderAccepts fails unless AppendBatch, under the Limits the
// relation was read with, accepts every row of r.
func checkAppenderAccepts(t *testing.T, r *Relation, lim Limits) {
	t.Helper()
	rows := make([][]Value, r.Rows())
	for i := range rows {
		rows[i] = r.Tuple(i)
	}
	if _, err := NewAppender(New(r.Name(), r.Schema()), lim).AppendBatch(rows); err != nil {
		t.Fatalf("AppendBatch rejected rows the reader accepted under %+v: %v", lim, err)
	}
}

// FuzzCSVMatchesOracle checks ReadCSVAuto, and ReadCSVLimits with
// string and with fixed kinds, against the oracle under random Limits,
// malformed input included; and that every relation a reader accepts is
// accepted by AppendBatch under the same Limits.
func FuzzCSVMatchesOracle(f *testing.F) {
	f.Add(hotelsCSV, uint16(0), uint8(0), uint8(0), uint32(0))
	f.Add(hotelsCSV, uint16(40), uint8(2), uint8(7), uint32(0x2a))
	f.Add("s,f,n,m\nx,1,,NaN\ny,2.5,,-0\n,1e3,,inf\nz,-4,,0x1p-2\n", uint16(0), uint8(0), uint8(0), uint32(0x24))
	f.Add("x,y\n1e5,\n", uint16(0), uint8(0), uint8(3), uint32(5))
	f.Add("a,b\n1,2\n3,x\n", uint16(0), uint8(1), uint8(0), uint32(1<<31))
	f.Add("a\n\"x\r\r\ny\"\n\n\n", uint16(9), uint8(0), uint8(0), uint32(0))
	f.Add("a,b\n1,\"2\n", uint16(0), uint8(0), uint8(0), uint32(0))
	f.Add("a,b\n1,x\"y\n", uint16(0), uint8(0), uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, data string, maxBytes uint16, maxRows, maxField uint8, kindBits uint32) {
		lim := Limits{MaxBytes: int64(maxBytes), MaxRows: int(maxRows), MaxFieldBytes: int(maxField)}
		got, gotErr := ReadCSVAuto("fuzz", []byte(data), lim)
		want, wantErr := oracleReadCSVAuto("fuzz", []byte(data), lim)
		checkMatchesOracle(t, got, gotErr, want, wantErr)
		if gotErr == nil {
			checkAppenderAccepts(t, got, lim)
		}

		got, gotErr = ReadCSVLimits("fuzz", strings.NewReader(data), nil, lim)
		want, wantErr = oracleReadCSVLimits("fuzz", strings.NewReader(data), nil, lim)
		checkMatchesOracle(t, got, gotErr, want, wantErr)

		// Fixed kinds, two bits a column (3 reads as a string); the top
		// bit asks for one kind too many.
		width := 1
		if wantErr == nil {
			width = want.Cols()
		}
		kinds := make([]Kind, width+int(kindBits>>31))
		for c := range kinds {
			kinds[c] = Kind(kindBits>>(2*(c%15))&3) % 3
		}
		got, gotErr = ReadCSVLimits("fuzz", strings.NewReader(data), kinds, lim)
		want, wantErr = oracleReadCSVLimits("fuzz", strings.NewReader(data), kinds, lim)
		checkMatchesOracle(t, got, gotErr, want, wantErr)
		if gotErr == nil {
			checkAppenderAccepts(t, got, lim)
		}
	})
}
