package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// FormatBinary is the first byte of every record payload the stores
// write. It is never '{', the first byte of every payload of the JSON
// codec the logs were written with before, so Decode tells the two
// formats apart by that byte alone.
const FormatBinary byte = 0x01

// Kind is a payload's second byte: which store's record it holds, so a
// reader (fsck) tells a jobs log from a stream log without decoding.
type Kind byte

const (
	// KindJobs marks a jobs.Record payload.
	KindJobs Kind = 1
	// KindStream marks a stream.WALRecord payload.
	KindStream Kind = 2
)

// Record is implemented by a pointer to a record type a Store holds.
// Fields declares the record's fields in their on-disk order, once for
// both directions: the same calls write the fields when the Codec
// encodes and read them back when it decodes.
type Record interface {
	RecordKind() Kind
	Fields(c *Codec)
}

// Codec writes or reads one record's fields. Strings are a uvarint
// length and their raw bytes, integers zigzag varints, booleans and
// presence markers one byte (0 or 1), floats their IEEE-754 bits (8
// bytes LE), and a slice its uvarint length and then its elements. An
// empty slice decodes as nil, as an omitted field did under JSON.
type Codec struct {
	buf    []byte // encoding: the payload so far; decoding: the unread rest
	decode bool
	err    error // the first decode error; every later read is a no-op
}

func (c *Codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// length reads a uvarint count and rejects one the unread rest cannot
// hold, as every string byte and every slice element takes at least one
// byte: a damaged length can never make Decode allocate past the
// payload's size.
func (c *Codec) length() int {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail("bad length")
		return 0
	}
	c.buf = c.buf[n:]
	if v > uint64(len(c.buf)) {
		c.fail("length %d overruns the %d bytes left", v, len(c.buf))
		return 0
	}
	return int(v)
}

// String writes or reads *s. A decoded string is a copy, so a replayed
// record never keeps the replay buffer alive.
func (c *Codec) String(s *string) {
	if !c.decode {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		c.buf = append(c.buf, *s...)
		return
	}
	n := c.length()
	if c.err != nil {
		return
	}
	*s = string(c.buf[:n])
	c.buf = c.buf[n:]
}

// Int64 writes or reads *v.
func (c *Codec) Int64(v *int64) {
	if !c.decode {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Varint(c.buf)
	if n <= 0 {
		c.fail("bad varint")
		return
	}
	*v = x
	c.buf = c.buf[n:]
}

// Int writes or reads *v as an Int64.
func (c *Codec) Int(v *int) {
	x := int64(*v)
	c.Int64(&x)
	if c.decode && c.err == nil {
		if int64(int(x)) != x {
			c.fail("integer %d overflows int", x)
			return
		}
		*v = int(x)
	}
}

// Bool writes or reads *v.
func (c *Codec) Bool(v *bool) {
	if !c.decode {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	if c.err != nil {
		return
	}
	if len(c.buf) == 0 || c.buf[0] > 1 {
		c.fail("bad boolean")
		return
	}
	*v = c.buf[0] == 1
	c.buf = c.buf[1:]
}

// Float64 writes or reads *v bit for bit.
func (c *Codec) Float64(v *float64) {
	if !c.decode {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
		return
	}
	if c.err != nil {
		return
	}
	if len(c.buf) < 8 {
		c.fail("short float")
		return
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(c.buf))
	c.buf = c.buf[8:]
}

// Strings writes or reads a string slice.
func (c *Codec) Strings(s *[]string) { Slice(c, s, (*Codec).String) }

// Ints writes or reads an int slice.
func (c *Codec) Ints(s *[]int) { Slice(c, s, (*Codec).Int) }

// Slice writes or reads *s, each element through elem.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	if !c.decode {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	n := c.length()
	if n == 0 {
		return
	}
	out := make([]T, n)
	for i := range out {
		elem(c, &out[i])
	}
	*s = out
}

// Optional writes or reads a presence byte for *p and, when it is set,
// the pointed-to value's fields.
func Optional[T any](c *Codec, p **T, fields func(*Codec, *T)) {
	present := *p != nil
	c.Bool(&present)
	if !present {
		return
	}
	if *p == nil {
		*p = new(T)
	}
	fields(c, *p)
}

// encodeCap is Encode's first buffer: it holds a record without a CSV
// in one allocation.
const encodeCap = 128

// Encode returns rec's frame payload: the format byte, the kind byte,
// then the fields in the order rec.Fields declares them.
func Encode(rec Record) []byte { return encode(rec, 0) }

// encode returns rec's payload behind headroom zero bytes, so a frame
// header can be filled in place in front of it.
func encode(rec Record, headroom int) []byte {
	c := Codec{buf: make([]byte, headroom+2, headroom+encodeCap)}
	c.buf[headroom], c.buf[headroom+1] = FormatBinary, byte(rec.RecordKind())
	rec.Fields(&c)
	return c.buf
}

// Decode reads payload into rec, which must be a zero record. A payload
// opening with '{' is a record from a log written before the binary
// codec, and decodes as the JSON it is; logs holding both formats
// replay record by record. A payload that passed its checksum but does
// not decode is a writer bug, not disk damage: the checksum guarantees
// those are the bytes that were acknowledged.
func Decode(payload []byte, rec Record) error {
	var err error
	switch {
	case len(payload) > 0 && payload[0] == '{':
		err = json.Unmarshal(payload, rec)
	case len(payload) < 2 || payload[0] != FormatBinary:
		err = errors.New("neither a binary nor a JSON payload")
	case Kind(payload[1]) != rec.RecordKind():
		err = fmt.Errorf("record kind %d, want %d", payload[1], rec.RecordKind())
	default:
		c := Codec{buf: payload[2:], decode: true}
		rec.Fields(&c)
		if c.err == nil && len(c.buf) > 0 {
			c.fail("%d trailing bytes", len(c.buf))
		}
		err = c.err
	}
	if err != nil {
		return fmt.Errorf("wal: undecodable record: %w", err)
	}
	return nil
}

// PayloadKind reports the kind byte of a binary payload; ok is false
// for a legacy JSON payload or one too short to carry the two bytes.
func PayloadKind(payload []byte) (kind Kind, ok bool) {
	if len(payload) < 2 || payload[0] != FormatBinary {
		return 0, false
	}
	return Kind(payload[1]), true
}
