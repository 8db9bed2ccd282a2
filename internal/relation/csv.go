package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxSupportedRows is the hard ceiling on relation cardinality: row
// indices are int32 throughout the partition layer (CSR rows/offsets
// arrays), so a relation past 2³¹−1 rows cannot be represented. The CSV
// readers enforce the ceiling at ingest — even under zero-value Limits —
// so oversized input is a typed *ErrInputTooLarge instead of a panic deep
// inside partition construction.
const MaxSupportedRows = 1<<31 - 1

// Limits bounds CSV ingestion. The zero value is unlimited up to the
// representation ceiling: MaxSupportedRows always applies, because rows
// beyond it are unrepresentable, not merely unwelcome. Limits exist
// because discovery inputs arrive from the outside world (CLI files,
// served request bodies) and an oversized relation must fail crisply with
// *ErrInputTooLarge before it turns into an unbounded allocation inside
// an exponential search.
type Limits struct {
	// MaxBytes bounds the raw CSV bytes consumed from the source (0 =
	// unlimited).
	MaxBytes int64
	// MaxRows bounds the data rows decoded, excluding the header (0 =
	// unlimited up to MaxSupportedRows; values above the ceiling are
	// clamped to it).
	MaxRows int
	// MaxFieldBytes bounds the length of any single field, header
	// included (0 = unlimited).
	MaxFieldBytes int
}

// Unlimited reports whether the limits impose no bound at all (beyond
// the always-on MaxSupportedRows representation ceiling).
func (l Limits) Unlimited() bool {
	return l.MaxBytes == 0 && l.MaxRows == 0 && l.MaxFieldBytes == 0
}

// effectiveMaxRows resolves the row bound the readers enforce: the
// configured MaxRows when set, clamped by the MaxSupportedRows ceiling
// that always applies.
func (l Limits) effectiveMaxRows() int {
	if l.MaxRows > 0 && l.MaxRows < MaxSupportedRows {
		return l.MaxRows
	}
	return MaxSupportedRows
}

// ErrInputTooLarge is returned by the limited CSV readers when an input
// exceeds a Limits bound. It is a typed error so callers (the deptool
// CLI, the server's request decoder) can distinguish "input too big" from
// "input malformed" and answer with the right exit code or HTTP status.
type ErrInputTooLarge struct {
	// What names the exceeded bound: "bytes", "rows" or "field bytes".
	What string
	// Limit is the configured bound; Got is the observed value that
	// exceeded it (for the byte bound, Got is Limit+1: reading stops at
	// the first excess byte).
	Limit, Got int64
}

func (e *ErrInputTooLarge) Error() string {
	return fmt.Sprintf("relation: input too large: %d %s exceeds limit %d", e.Got, e.What, e.Limit)
}

// limitedReader wraps src to fail with *ErrInputTooLarge once more than
// max bytes have been consumed (io.LimitedReader's silent EOF would
// instead truncate the relation mid-record).
type limitedReader struct {
	src io.Reader
	max int64
	n   int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if l.n > l.max {
		return 0, &ErrInputTooLarge{What: "bytes", Limit: l.max, Got: l.n}
	}
	// Read at most one probe byte past the limit: an input of exactly
	// max bytes must still reach its EOF, while the first excess byte
	// trips the bound.
	if rem := l.max - l.n + 1; int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := l.src.Read(p)
	l.n += int64(n)
	if l.n > l.max {
		return n, &ErrInputTooLarge{What: "bytes", Limit: l.max, Got: l.n}
	}
	return n, err
}

// ReadCSV decodes a relation from CSV. The first record is the header. Kinds
// gives the type per column; if nil, every column is read as a string.
func ReadCSV(name string, src io.Reader, kinds []Kind) (*Relation, error) {
	return ReadCSVLimits(name, src, kinds, Limits{})
}

// ReadCSVLimits is ReadCSV under ingestion Limits: exceeding any bound
// stops the read with a wrapped *ErrInputTooLarge instead of allocating
// without bound. The source is read into memory (at most MaxBytes+1
// bytes when MaxBytes is set) and decoded by the same one-pass decoder
// as ReadCSVAuto.
func ReadCSVLimits(name string, src io.Reader, kinds []Kind, lim Limits) (*Relation, error) {
	if lim.MaxBytes > 0 {
		src = &limitedReader{src: src, max: lim.MaxBytes}
	}
	data, err := io.ReadAll(src)
	return decodeCSV(name, data, err, kinds, false, lim)
}

// ReadCSVAuto decodes a relation from in-memory CSV bytes under Limits,
// inferring column kinds: a column whose every non-null value parses as
// numeric becomes KindFloat, everything else stays KindString. It is the
// single type-inference path shared by the deptool CLI and the server's
// request decoder, so a relation posted to the server types identically
// to the same bytes read from a file.
func ReadCSVAuto(name string, data []byte, lim Limits) (*Relation, error) {
	if lim.MaxBytes > 0 && int64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("relation: read CSV: %w",
			&ErrInputTooLarge{What: "bytes", Limit: lim.MaxBytes, Got: int64(len(data))})
	}
	return decodeCSV(name, data, nil, nil, true, lim)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeCSV is the one CSV decoder. It decodes data, then fails with
// readErr (nil: data is the whole input) where the source did, in one
// pass that writes every cell straight into its column. Kinds fixes the
// column types; when it is nil, every column is read as a string, or,
// with infer, typed as ReadCSVAuto documents: each cell keeps its string
// payload plus its float while its column still parses, and the columns
// that parsed throughout become KindFloat at the end.
//
// Every column is pre-sized to rowBound rows, so a decode that ends
// without error grows no column (see rowBound for why that cannot
// over-allocate).
func decodeCSV(name string, data []byte, readErr error, kinds []Kind, infer bool, lim Limits) (*Relation, error) {
	var src io.Reader = bytes.NewReader(data)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	cr := csv.NewReader(src)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read CSV header: %w", err)
	}
	if err := checkFields(header, lim); err != nil {
		return nil, err
	}
	// csv.Reader only yields a '\r' the input holds.
	fold := bytes.IndexByte(data, '\r') >= 0
	if fold {
		foldCRLF(header)
	}
	if kinds != nil && len(kinds) != len(header) {
		return nil, fmt.Errorf("relation: %d kinds for %d header columns", len(kinds), len(header))
	}
	attrs := make([]Attribute, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		if seen[h] {
			// NewSchema treats duplicate names as a programming error and
			// panics; for data read from the outside world it is an input
			// error instead.
			return nil, fmt.Errorf("relation: duplicate CSV header column %q", h)
		}
		seen[h] = true
		attrs[i] = Attribute{Name: h}
		if kinds != nil {
			attrs[i].Kind = kinds[i]
		}
	}
	maxRows := lim.effectiveMaxRows()
	bound := rowBound(data, len(attrs), maxRows)
	cols := make([][]Value, len(attrs))
	for c := range cols {
		cols[c] = make([]Value, bound)
	}
	// numeric[c]: with infer, column c has parsed as floats so far.
	numeric := make([]bool, len(attrs))
	for c := range numeric {
		numeric[c] = infer
	}
	rows := 0
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read CSV line %d: %w", line, err)
		}
		if line-1 > maxRows {
			return nil, fmt.Errorf("relation: read CSV: %w",
				&ErrInputTooLarge{What: "rows", Limit: int64(maxRows), Got: int64(line - 1)})
		}
		if err := checkFields(rec, lim); err != nil {
			return nil, err
		}
		if len(rec) != len(attrs) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, want %d", line, len(rec), len(attrs))
		}
		if fold {
			foldCRLF(rec)
		}
		if rows == len(cols[0]) {
			// Past rowBound, which CSV that decodes cannot reach: grow
			// rather than index out of range.
			for c := range cols {
				cols[c] = append(cols[c], Value{})
			}
		}
		for c, field := range rec {
			// Cells start as the zero Value, a non-null empty string:
			// set only what differs.
			cell := &cols[c][rows]
			if kinds != nil {
				if *cell, err = Parse(field, kinds[c]); err != nil {
					return nil, fmt.Errorf("relation: CSV line %d column %s: %w", line, attrs[c].Name, err)
				}
				continue
			}
			cell.str = field
			switch {
			case field == "":
				cell.null = true
			case numeric[c]:
				if f, ok := parseFloat(field); ok {
					cell.num = f
				} else {
					// The column is strings after all: drop the floats
					// its earlier cells carry.
					numeric[c] = false
					for i := range cols[c][:rows] {
						cols[c][i].num = 0
					}
				}
			}
		}
		rows++
	}
	for c, col := range cols {
		col = col[:rows]
		cols[c] = col
		if !numeric[c] {
			continue
		}
		attrs[c].Kind = KindFloat
		for i := range col {
			col[i].kind, col[i].str = KindFloat, ""
		}
	}
	return &Relation{name: name, schema: NewSchema(attrs...), cols: cols, rows: rows}, nil
}

// parseFloat is strconv.ParseFloat(s, 64) reporting only success, with
// a fast path for the short unsigned decimal integers numeric columns
// mostly hold: up to 15 digits, every such value is an exact float64.
func parseFloat(s string) (float64, bool) {
	if len(s) <= 15 {
		n := 0
		for i := 0; i < len(s); i++ {
			d := s[i] - '0'
			if d > 9 {
				n = -1
				break
			}
			n = n*10 + int(d)
		}
		if n >= 0 {
			return float64(n), true
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// rowBound bounds the data rows a CSV input can hold, so columns can be
// pre-sized without ever allocating more than a legitimate input of the
// same length would. It is the least of
//
//   - the newlines outside quoted fields, plus one, less the header: a
//     newline inside a quoted field ends no record, and counting quote
//     parity keeps a field of a million quoted newlines from sizing a
//     million rows (in valid CSV a quote opens or closes a quoted field
//     or comes in an escaped pair, so parity is odd exactly inside one);
//   - len(data)/max(cols, 2): every data row of cols ≥ 2 columns holds
//     cols-1 commas and a newline (the last row at least its commas,
//     after a header of at least cols bytes), and a one-column row holds
//     a byte and a newline, since blank lines are skipped;
//   - maxRows, past which the decoder fails.
//
// So a legitimate input of this length can hold the rows the bound
// sizes, while a malformed one (say, blank lines) sizes no more.
func rowBound(data []byte, cols, maxRows int) int {
	newlines, quoted := 0, false
	for rest := data; len(rest) > 0; {
		i := bytes.IndexByte(rest, '"')
		if i < 0 {
			i = len(rest)
		}
		if !quoted {
			newlines += bytes.Count(rest[:i], []byte{'\n'})
		}
		if i < len(rest) {
			quoted = !quoted
			i++
		}
		rest = rest[i:]
	}
	return max(0, min(newlines, len(data)/max(cols, 2), maxRows))
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

// checkFields enforces the per-field byte bound on one CSV record.
func checkFields(rec []string, lim Limits) error {
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

// WriteCSV encodes the relation as CSV with a header record.
func WriteCSV(r *Relation, dst io.Writer) error {
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
