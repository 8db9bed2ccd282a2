package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
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

// decodeCSV is the one CSV decoder. It decodes data, then fails with
// readErr (nil: data is the whole input) where the source did, in one
// pass that writes every cell straight into its column. Kinds fixes the
// column types; when it is nil, every column is read as a string, or,
// with infer, typed as ReadCSVAuto documents: each cell keeps its string
// payload plus its float while its column still parses, and the columns
// that parsed throughout become KindFloat at the end.
//
// Data is copied into one string, and every field is a substring of it
// (see csvScanner), so the string cells of the relation share that one
// copy of the input for as long as the relation lives.
//
// Every column is pre-sized to rowBound rows, so a decode that ends
// without error grows no column (see rowBound for why that cannot
// over-allocate).
func decodeCSV(name string, data []byte, readErr error, kinds []Kind, infer bool, lim Limits) (*Relation, error) {
	sc := &csvScanner{s: string(data), err: readErr, maxField: lim.MaxFieldBytes}
	if sc.maxField <= 0 {
		sc.maxField = math.MaxInt
	}
	header, err := sc.record(nil)
	if err != nil {
		return nil, fmt.Errorf("relation: read CSV header: %w", err)
	}
	if err := sc.fieldErr(); err != nil {
		return nil, err
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
	bound := rowBound(sc.s, len(attrs), maxRows)
	cols := make([][]Value, len(attrs))
	for c := range cols {
		cols[c] = make([]Value, bound)
	}
	// numeric[c]: with infer, column c has parsed as floats so far.
	numeric := make([]bool, len(attrs))
	for c := range numeric {
		numeric[c] = infer
	}
	// rec reuses the header's storage: the names live on in attrs.
	rows, rec := 0, header
	for line := 2; ; line++ {
		rec, err = sc.record(rec)
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
		if err := sc.fieldErr(); err != nil {
			return nil, err
		}
		if len(rec) != len(attrs) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, want %d", line, len(rec), len(attrs))
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

// csvScanner splits CSV held in one string into records by the rules of
// encoding/csv's Reader with FieldsPerRecord -1 (readLine and readRecord
// in its reader.go), so it yields the same records and the same
// *csv.ParseError values, whose texts the decoder's errors carry:
//
//   - a physical line ends at '\n'; a "\r\n" ending reads as "\n", and a
//     '\r' that ends the input is dropped;
//   - a blank line is skipped;
//   - an unquoted field runs to the next ',' or the line's end, and a '"'
//     in it is ErrBareQuote;
//   - a quoted field runs, across lines, to a '"' that a ',' or the
//     line's end follows; "" in it reads as one '"', and any other '"',
//     or the input ending first, is ErrQuote;
//   - a record that runs into the end of a source that failed (err) ends
//     with that error, unless it breaks one of the rules above first.
//
// Lines and columns count as encoding/csv counts them: physical lines,
// blank ones included, and 1-based bytes of the line.
//
// One rule goes further: a quoted field drops every run of '\r' that
// ends one of its lines, where encoding/csv keeps all but the last '\r'
// of the run. A field that read as "x\r\ny" would render back as
// "x\r\ny", which reads as "x\ny" next time; folding it keeps every
// field a value that round-trips (found by FuzzCSVRoundTrip).
//
// Fields are substrings of s: only a quoted field holding "" or a folded
// line end is built anew.
type csvScanner struct {
	s   string
	err error // what the source raised after s; nil: s ends at EOF
	pos int   // offset of the next unread line
	// line counts the physical lines read, like csv.Reader's numLine.
	line int
	// maxField bounds a field's length as encoding/csv gives it, before
	// the fold; wide is the length of the last record's first field over
	// the bound, 0 when none is.
	maxField, wide int
	buf            []byte // scratch for the fields unquote builds
}

// readLine consumes the next physical line and returns its content
// s[start:end] without the line end, whether a '\n' ended it, and the
// error the read met: io.EOF when no byte was left, sc.err when the line
// ran into the end of a source that failed.
func (sc *csvScanner) readLine() (start, end int, nl bool, err error) {
	sc.line++
	start = sc.pos
	if i := strings.IndexByte(sc.s[start:], '\n'); i >= 0 {
		end = start + i
		sc.pos = end + 1
		if end > start && sc.s[end-1] == '\r' {
			end--
		}
		return start, end, true, nil
	}
	end = len(sc.s)
	sc.pos = end
	switch {
	case sc.err != nil:
		return start, end, false, sc.err
	case end == start:
		return start, end, false, io.EOF
	case sc.s[end-1] == '\r':
		end--
	}
	return start, end, false, nil
}

// record reads the next record into rec's storage and returns it. It
// returns io.EOF when no record is left.
func (sc *csvScanner) record(rec []string) ([]string, error) {
	s := sc.s
	var start, end int
	var nl bool
	var errRead error
	for {
		start, end, nl, errRead = sc.readLine()
		if errRead != nil || start < end {
			break
		}
	}
	if errRead == io.EOF {
		return nil, io.EOF
	}
	rec, sc.wide = rec[:0], 0
	recLine, lineStart, p := sc.line, start, start
	for {
		if p == end || s[p] != '"' {
			j := p
			for ; j < end && s[j] != ','; j++ {
				if s[j] == '"' {
					return nil, &csv.ParseError{StartLine: recLine, Line: sc.line, Column: j - lineStart + 1, Err: csv.ErrBareQuote}
				}
			}
			rec = append(rec, s[p:j])
			if j-p > sc.maxField && sc.wide == 0 {
				sc.wide = j - p
			}
			if j == end {
				return rec, errRead
			}
			p = j + 1
			continue
		}
		// A quoted field: scan line by line for its closing quote.
		// posLine and endCol are where csv.Reader reports a field that
		// the input ends: its last non-empty line, past that line's end.
		p++
		open, posLine, endCol := p, sc.line, 0
		escapes, folds := 0, 0
		for {
			if i := strings.IndexByte(s[p:end], '"'); i >= 0 {
				q := p + i
				p = q + 1
				if p < end && s[p] == '"' {
					escapes++
					p++
					continue
				}
				if p < end && s[p] != ',' {
					// A closing quote must end the field.
					return nil, &csv.ParseError{StartLine: recLine, Line: sc.line, Column: q - lineStart + 1, Err: csv.ErrQuote}
				}
				rec = append(rec, sc.unquote(s[open:q], escapes, folds))
				if w := q - open - escapes - folds; w > sc.maxField && sc.wide == 0 {
					sc.wide = w
				}
				if p == end {
					return rec, errRead
				}
				p++
				break
			}
			if errRead != nil {
				return nil, errRead
			}
			if p == end && !nl {
				// The input ends inside the field.
				if endCol == 0 {
					endCol = p - lineStart + 1
				}
				return nil, &csv.ParseError{StartLine: recLine, Line: posLine, Column: endCol, Err: csv.ErrQuote}
			}
			endCol = end - lineStart + 1
			if nl {
				endCol++
				if s[end] == '\r' {
					folds++
				}
			}
			start, end, nl, errRead = sc.readLine()
			if start < end || nl {
				lineStart, posLine, endCol = start, sc.line, 0
			}
			if errRead == io.EOF {
				errRead = nil
			}
			p = start
		}
	}
}

// unquote returns the quoted field whose content between its quotes is
// raw, holding escapes "" pairs and folds line ends that had a '\r'
// before their '\n': raw itself when it holds neither.
func (sc *csvScanner) unquote(raw string, escapes, folds int) string {
	if escapes == 0 && folds == 0 {
		return raw
	}
	b := sc.buf[:0]
	for len(raw) > 0 {
		i := strings.IndexAny(raw, "\"\r")
		if i < 0 {
			b = append(b, raw...)
			break
		}
		b = append(b, raw[:i]...)
		if raw[i] == '"' {
			// Quotes in raw come in pairs.
			b = append(b, '"')
			raw = raw[i+2:]
			continue
		}
		j := i + 1
		for j < len(raw) && raw[j] == '\r' {
			j++
		}
		if j == len(raw) || raw[j] != '\n' {
			b = append(b, raw[i:j]...)
		}
		raw = raw[j:]
	}
	sc.buf = b
	return string(b)
}

// fieldErr reports the field byte bound the last record broke, if any.
func (sc *csvScanner) fieldErr() error {
	if sc.wide == 0 {
		return nil
	}
	return fmt.Errorf("relation: read CSV: %w",
		&ErrInputTooLarge{What: "field bytes", Limit: int64(sc.maxField), Got: int64(sc.wide)})
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
func rowBound(data string, cols, maxRows int) int {
	newlines, quoted := 0, false
	for rest := data; len(rest) > 0; {
		i := strings.IndexByte(rest, '"')
		if i < 0 {
			i = len(rest)
		}
		if !quoted {
			newlines += strings.Count(rest[:i], "\n")
		}
		if i < len(rest) {
			quoted = !quoted
			i++
		}
		rest = rest[i:]
	}
	return max(0, min(newlines, len(data)/max(cols, 2), maxRows))
}

// writeChunk is the size at which WriteCSV hands its buffer to the
// destination; writeSlack is the headroom left for the record that
// crosses it, so a record shorter than that never grows the buffer.
const (
	writeChunk = 64 << 10
	writeSlack = 4 << 10
)

// WriteCSV encodes the relation as CSV with a header record. Records
// are appended to one buffer that goes to dst whenever it holds about
// writeChunk bytes, so a large relation streams (into a hash, say)
// without being held whole. Fields are quoted by encoding/csv's Writer
// rules (see appendField), and a record of one empty field is written
// as "", where encoding/csv writes a blank line that every reader skips
// (found by FuzzCSVRoundTrip).
func WriteCSV(r *Relation, dst io.Writer) error {
	buf := make([]byte, 0, writeChunk+writeSlack)
	cols := r.Cols()
	for row := -1; row < r.Rows(); row++ {
		mark := len(buf)
		for c := 0; c < cols; c++ {
			if c > 0 {
				buf = append(buf, ',')
			}
			if row < 0 {
				buf = appendField(buf, r.schema.Attr(c).Name)
				continue
			}
			switch v := r.cols[c][row]; {
			case v.null:
			case v.kind == KindString:
				buf = appendField(buf, v.str)
			default:
				// A rendered number never needs quotes.
				buf = appendValue(buf, v)
			}
		}
		if cols == 1 && len(buf) == mark {
			buf = append(buf, `""`...)
		}
		buf = append(buf, '\n')
		if len(buf) >= writeChunk || row == r.Rows()-1 {
			if _, err := dst.Write(buf); err != nil {
				return fmt.Errorf("relation: write CSV: %w", err)
			}
			buf = buf[:0]
		}
	}
	return nil
}

// appendField appends f as one CSV field, quoted when encoding/csv's
// Writer would quote it: when it holds ',', '"', '\r' or '\n', is `\.`,
// or starts with a Unicode space.
func appendField(b []byte, f string) []byte {
	if !fieldNeedsQuotes(f) {
		return append(b, f...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(f, '"')
		if i < 0 {
			break
		}
		b = append(b, f[:i+1]...)
		b = append(b, '"')
		f = f[i+1:]
	}
	b = append(b, f...)
	return append(b, '"')
}

func fieldNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` {
		return true
	}
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}
