package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The request-body decoder. Every POST body is one JSON object whose
// keys name fields of a request envelope, so decodeJSON reads the body
// in one pass: it walks the top-level object once, sends each key
// through the envelope's field table, unescapes each string in place
// and stores each value straight into the struct field the table names,
// a string copied out at exactly its decoded length. Its accepted set
// and its results are those of encoding/json decoding into the envelope
// with DisallowUnknownFields and no trailing value;
// FuzzDecodeBodyMatchesJSON holds the two together.

// field is one key of a request envelope: its JSON name and a pointer
// to the struct field it sets, a *string, *int, *int64 or *float64.
type field struct {
	name string
	ptr  any
}

// envelope is a request body decodeBody can fill: fields binds each key
// the body accepts to the struct field it sets.
type envelope interface{ fields() []field }

// readBody reads a body to EOF into one buffer. The buffer starts at
// the declared length plus one byte (the room where the read meeting
// EOF lands), so a body matching its Content-Length is read without
// growing; it never grows past limit. A byte beyond limit is a
// MaxBytesError, as http.MaxBytesReader reports it.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = declared + 1
	}
	b := make([]byte, 0, min(size, limit))
	for {
		if len(b) == cap(b) {
			if int64(len(b)) >= limit {
				// Full at the bound: anything but EOF is a byte too many.
				var probe [1]byte
				switch _, err := io.ReadFull(r, probe[:]); err {
				case io.EOF:
					return b, nil
				case nil:
					return nil, &http.MaxBytesError{Limit: limit}
				default:
					return nil, err
				}
			}
			nb := make([]byte, len(b), min(2*int64(cap(b))+512, limit))
			copy(nb, b)
			b = nb
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeJSON decodes body, which it overwrites, into the fields fs
// binds. As with encoding/json: keys match a field name exactly, else
// under bytes.EqualFold; the last of duplicate keys wins; null leaves a
// field unset, and a top-level null leaves them all; an unknown key, a
// value of the wrong JSON type and a number its field cannot hold are
// errors; invalid UTF-8 and unpaired surrogate escapes decode to U+FFFD;
// only whitespace may follow the object.
func decodeJSON(body []byte, fs []field) error {
	d := scanner{b: body}
	d.skipSpace()
	if !d.literal("null") {
		if err := d.object(fs); err != nil {
			return err
		}
	}
	d.skipSpace()
	if d.i < len(d.b) {
		return fmt.Errorf("trailing data after JSON body at offset %d", d.i)
	}
	return nil
}

// scanner is a read position in one body.
type scanner struct {
	b []byte
	i int
}

func (d *scanner) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the byte at the read position, 0 at the end of the body
// (0 starts no JSON token).
func (d *scanner) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// literal consumes lit if the body continues with it.
func (d *scanner) literal(lit string) bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
		return false
	}
	d.i += len(lit)
	return true
}

// syntax is the error for the byte at the read position, which is not
// what the grammar allows there.
func (d *scanner) syntax(where string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input %s", where)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.b[d.i], where, d.i)
}

// object decodes the top-level object into fs.
func (d *scanner) object(fs []field) error {
	if d.peek() != '{' {
		return d.syntax("looking for beginning of object")
	}
	d.i++
	d.skipSpace()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.quoted()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.i++
		d.skipSpace()
		f := lookup(fs, key)
		if f == nil {
			return fmt.Errorf("unknown field %q", key)
		}
		if err := d.value(f); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.i++
			d.skipSpace()
		case '}':
			d.i++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// lookup finds the field key names: exactly, else under case folding.
func lookup(fs []field, key []byte) *field {
	for i := range fs {
		if string(key) == fs[i].name {
			return &fs[i]
		}
	}
	for i := range fs {
		if bytes.EqualFold(key, []byte(fs[i].name)) {
			return &fs[i]
		}
	}
	return nil
}

// value decodes the value at the read position into f.
func (d *scanner) value(f *field) error {
	if d.literal("null") {
		return nil
	}
	if p, ok := f.ptr.(*string); ok {
		if d.peek() != '"' {
			return d.mismatch(f)
		}
		v, err := d.quoted()
		if err != nil {
			return err
		}
		*p = string(v)
		return nil
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.mismatch(f)
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	switch p := f.ptr.(type) {
	case *int:
		v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
		if err != nil {
			return fmt.Errorf("cannot decode number %s into int field %s", num, f.name)
		}
		*p = int(v)
	case *int64:
		v, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil {
			return fmt.Errorf("cannot decode number %s into int64 field %s", num, f.name)
		}
		*p = v
	case *float64:
		v, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return fmt.Errorf("cannot decode number %s into float64 field %s", num, f.name)
		}
		*p = v
	default:
		panic(fmt.Sprintf("server: field %s has unsupported target %T", f.name, f.ptr))
	}
	return nil
}

// mismatch is the error for a value whose JSON type the field cannot
// hold. The value is not scanned further: the body is rejected either
// way.
func (d *scanner) mismatch(f *field) error {
	if d.i >= len(d.b) {
		return d.syntax("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode value starting %q at offset %d into field %s", d.b[d.i], d.i, f.name)
}

// number consumes one JSON number and returns its bytes.
func (d *scanner) number() ([]byte, error) {
	b, i := d.b, d.i
	start := i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i >= len(b) || b[i] < '1' || b[i] > '9' {
		d.i = i
		return nil, d.syntax("in numeric literal")
	} else {
		digits()
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.i = i
			return nil, d.syntax("after decimal point in numeric literal")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.i = i
			return nil, d.syntax("in exponent of numeric literal")
		}
	}
	d.i = i
	return b[start:i], nil
}

// plainRun returns the end of the run of bytes a JSON string holds as
// themselves, printable ASCII other than '"' and '\\', in s from i. It
// tests eight bytes at a time: in the word's high-bit mask m, a byte is
// marked when it is below 0x20, is '"' or '\\', or is not ASCII. Borrows
// only carry upward, so the lowest mark is the run's end.
func plainRun(s []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(s); i += 8 {
		w := binary.LittleEndian.Uint64(s[i:])
		q, bs := w^(ones*'"'), w^(ones*'\\')
		if m := ((w-ones*0x20)&^w | (q-ones)&^q | (bs-ones)&^bs | w) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for i < len(s) && s[i] >= 0x20 && s[i] < utf8.RuneSelf && s[i] != '"' && s[i] != '\\' {
		i++
	}
	return i
}

// unescaped maps the byte after a backslash to the byte its two-byte
// escape stands for; 0 marks \u and the bytes no escape allows.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// quoted consumes the JSON string at the read position and returns its
// decoded value. The value is decoded over its own raw bytes, which it
// never outgrows (every escape decodes to fewer bytes than it spells),
// unless invalid UTF-8, replaced by the three-byte U+FFFD, would
// overwrite bytes not yet read: the value then moves to a buffer of its
// own. Either way the caller copies out a string of exactly its length.
func (d *scanner) quoted() ([]byte, error) {
	b := d.b
	start := d.i + 1
	v := b[start:start]
	inPlace := true
	run := start // first raw byte not yet in v
	for i := start; ; {
		i = plainRun(b, i)
		if i >= len(b) {
			d.i = i
			return nil, d.syntax("in string literal")
		}
		c := b[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(b[i:])
			i += size
			if r != utf8.RuneError || size != 1 {
				continue // valid UTF-8 stays in the run
			}
			v = append(v, b[run:i-1]...)
			if inPlace && start+len(v)+len(string(utf8.RuneError)) > i {
				v = append([]byte(nil), v...)
				inPlace = false
			}
			v = utf8.AppendRune(v, utf8.RuneError)
			run = i
			continue
		}
		v = append(v, b[run:i]...)
		switch {
		case c == '"':
			d.i = i + 1
			return v, nil
		case c < 0x20:
			d.i = i
			return nil, d.syntax("in string literal")
		case i+1 >= len(b):
			d.i = i + 1
			return nil, d.syntax("in string escape code")
		}
		if e := unescaped[b[i+1]]; e != 0 {
			v = append(v, e)
			i += 2
		} else if b[i+1] == 'u' {
			r, width, ok := escapeU(b[i:])
			if !ok {
				d.i = i + 2
				for d.i < len(b) && d.i < i+6 && isHex(b[d.i]) {
					d.i++
				}
				return nil, d.syntax("in \\u hexadecimal character escape")
			}
			v = utf8.AppendRune(v, r)
			i += width
		} else {
			d.i = i + 1
			return nil, d.syntax("in string escape code")
		}
		run = i
	}
}

// escapeU decodes the \u escape at the start of s and returns its rune
// and width, or false when four hex digits do not follow. A high
// surrogate pairs with a low-surrogate escape right after it; any
// surrogate left unpaired decodes to U+FFFD.
func escapeU(s []byte) (rune, int, bool) {
	if len(s) < 6 || !isHex4(s[2:6]) {
		return 0, 0, false
	}
	r := hex4(s[2:6])
	if !utf16.IsSurrogate(r) {
		return r, 6, true
	}
	if len(s) >= 12 && s[6] == '\\' && s[7] == 'u' && isHex4(s[8:12]) {
		if dec := utf16.DecodeRune(r, hex4(s[8:12])); dec != utf8.RuneError {
			return dec, 12, true
		}
	}
	return utf8.RuneError, 6, true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isHex4(s []byte) bool {
	return isHex(s[0]) && isHex(s[1]) && isHex(s[2]) && isHex(s[3])
}

// hex4 is the value of four hex digits.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
