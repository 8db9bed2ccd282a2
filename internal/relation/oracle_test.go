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
// Relation.Append, then folds each field's CRLF runs (foldCRLF). It
// shares only the byte bound (limitedReader) with the decoder.
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
	if err := oracleCheckFields(header, lim); err != nil {
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
		if err := oracleCheckFields(rec, lim); err != nil {
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

// foldCRLF rewrites every run of "\r" that ends a field's "\r\n" to a
// bare "\n". csv.Reader folds a line-ending "\r\n" but keeps any "\r"
// just before it, so a quoted field can read as "\r\n" — which WriteCSV
// cannot render back, because the reader folds it on the next read.
// Folding here makes every field read a value that round-trips (found by
// FuzzCSVRoundTrip). One linear pass; fields without "\r\n" are kept.
func foldCRLF(rec []string) {
	for i, f := range rec {
		if !strings.Contains(f, "\r\n") {
			continue
		}
		b := make([]byte, 0, len(f))
		for j := 0; j < len(f); j++ {
			if f[j] == '\r' {
				k := j
				for k < len(f) && f[k] == '\r' {
					k++
				}
				if k < len(f) && f[k] == '\n' {
					j = k - 1 // drop the run; the '\n' is copied next
					continue
				}
			}
			b = append(b, f[j])
		}
		rec[i] = string(b)
	}
}

// oracleCheckFields enforces the per-field byte bound on one csv.Reader
// record, before the CRLF fold.
func oracleCheckFields(rec []string, lim Limits) error {
	if lim.MaxFieldBytes <= 0 {
		return nil
	}
	for _, f := range rec {
		if len(f) > lim.MaxFieldBytes {
			return fmt.Errorf("relation: read CSV: %w",
				&ErrInputTooLarge{What: "field bytes", Limit: int64(lim.MaxFieldBytes), Got: int64(len(f))})
		}
	}
	return nil
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

// oracleWriteCSV is the csv.Writer encoder WriteCSV replaced, kept as
// its reference.
func oracleWriteCSV(r *Relation, dst io.Writer) error {
	cw := csv.NewWriter(dst)
	writeRecord := func(rec []string) error {
		// encoding/csv renders a lone empty field as a blank line, which
		// readers then skip as empty — the record would vanish on a round
		// trip (found by FuzzCSVRoundTrip). Emit an explicit "" instead.
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(dst, "\"\"\n")
			return err
		}
		return cw.Write(rec)
	}
	if err := writeRecord(r.Schema().Names()); err != nil {
		return fmt.Errorf("relation: write CSV header: %w", err)
	}
	rec := make([]string, r.Cols())
	for i := 0; i < r.Rows(); i++ {
		for c := 0; c < r.Cols(); c++ {
			v := r.Value(i, c)
			if v.IsNull() {
				rec[c] = ""
			} else {
				rec[c] = v.String()
			}
		}
		if err := writeRecord(rec); err != nil {
			return fmt.Errorf("relation: write CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
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

// TestCSVMatchesOracleExhaustive checks every input of up to six bytes
// drawn from 'a', ',', '"', '\r' and '\n' against the oracle, whole and
// cut by a byte bound, with and without a field bound: each rule of the
// scanner and each place a parse error or a read error can land. Every
// relation decoded must also render as the csv.Writer oracle renders it.
func TestCSVMatchesOracleExhaustive(t *testing.T) {
	alphabet := []byte{'a', ',', '"', '\r', '\n'}
	lims := []Limits{{}, {MaxBytes: 3}, {MaxFieldBytes: 1}}
	var walk func(data []byte)
	walk = func(data []byte) {
		for _, lim := range lims {
			got, gotErr := ReadCSVAuto("x", data, lim)
			want, wantErr := oracleReadCSVAuto("x", data, lim)
			checkMatchesOracle(t, got, gotErr, want, wantErr)
			got, gotErr = ReadCSVLimits("x", bytes.NewReader(data), nil, lim)
			want, wantErr = oracleReadCSVLimits("x", bytes.NewReader(data), nil, lim)
			checkMatchesOracle(t, got, gotErr, want, wantErr)
			if gotErr == nil {
				checkWriteMatchesOracle(t, got)
			}
		}
		if len(data) == 6 {
			return
		}
		for _, c := range alphabet {
			walk(append(data, c))
		}
	}
	walk(make([]byte, 0, 6))
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
	f.Add("a,\"\n\",\"", uint16(0), uint8(0), uint8(0), uint32(0))
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

// checkWriteMatchesOracle fails unless WriteCSV renders r byte for byte
// as the csv.Writer oracle does.
func checkWriteMatchesOracle(t *testing.T, r *Relation) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteCSV(r, &got); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteCSV(r, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV wrote\n%q\nthe oracle\n%q", got.Bytes(), want.Bytes())
	}
}

// FuzzWriteCSVMatchesOracle checks WriteCSV against the csv.Writer
// oracle byte for byte: on the relations ReadCSVAuto and string-kind
// ReadCSVLimits decode from the input, and on hand-built relations that
// hold the input as a string cell and as a header name, a float, an int,
// and one-column null and empty rows.
func FuzzWriteCSVMatchesOracle(f *testing.F) {
	f.Add(hotelsCSV, 1.5, int64(7))
	f.Add(`\.`, math.NaN(), int64(0))
	f.Add("\u0085x", math.Inf(1), int64(-3))
	f.Add("\u00a0", math.Inf(-1), int64(1<<53))
	f.Add("\u3000y", math.Copysign(0, -1), int64(-1<<40))
	f.Add("\r", 1e21, int64(999999))
	f.Add("a\"b\"\"c", 1e6, int64(1e6))
	f.Add("", -999999.0, int64(-1))
	f.Add(" lead,\n", 0.1, int64(12))
	f.Fuzz(func(t *testing.T, data string, x float64, n int64) {
		if r, err := ReadCSVAuto("fuzz", []byte(data), Limits{}); err == nil {
			checkWriteMatchesOracle(t, r)
		}
		if r, err := ReadCSVLimits("fuzz", strings.NewReader(data), nil, Limits{}); err == nil {
			checkWriteMatchesOracle(t, r)
		}
		schema := NewSchema(
			Attribute{Name: "s"}, Attribute{Name: "f", Kind: KindFloat},
			Attribute{Name: "i", Kind: KindInt}, Attribute{Name: data + "h"})
		checkWriteMatchesOracle(t, MustFromRows("cells", schema, [][]Value{
			{String(data), Float(x), Int(int(n)), String(data)},
			{Null(KindString), Null(KindFloat), Null(KindInt), String("")},
		}))
		for _, v := range []Value{String(data), Null(KindString), String(""), Float(x), Null(KindFloat), Int(int(n))} {
			one := NewSchema(Attribute{Name: data, Kind: v.Kind()})
			checkWriteMatchesOracle(t, MustFromRows("one", one, [][]Value{{v}, {v}}))
		}
	})
}
