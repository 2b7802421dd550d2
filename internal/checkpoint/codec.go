// Package checkpoint provides crash-safe persistence for long-running
// campaign state: a compact little-endian binary codec for simulator state
// blobs, an atomic temp-write+rename file writer, and a checksummed
// two-generation manifest store. Together they give cmd/soak the property
// the multi-week campaigns need: a run killed at any window boundary and
// resumed from its checkpoint directory produces byte-identical final
// reports versus an uninterrupted run.
//
// The codec is deliberately dumb: fixed-width little-endian words with
// length-prefixed byte strings and explicit section tags. Floats travel as
// IEEE-754 bit patterns, so +Inf sentinels (the fault injector's "event
// channel disabled" markers) and negative zeros survive exactly — JSON
// cannot represent them. Decoders carry a sticky error: after the first
// failure every subsequent read returns a zero value, so restore code can
// read an entire structure and check Err() once at the end.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder builds a state blob. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Data returns the encoded bytes accumulated so far.
func (e *Encoder) Data() []byte { return e.buf }

// U64 appends a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a signed 64-bit integer.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int (as a signed 64-bit integer).
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern, preserving infinities,
// NaN payloads and signed zeros exactly.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends one raw byte.
func (e *Encoder) Byte(v uint8) { e.buf = append(e.buf, v) }

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) { e.Bytes([]byte(s)) }

// Len appends a collection length.
func (e *Encoder) Len(n int) { e.U64(uint64(n)) }

// UVar appends an unsigned base-128 varint. Delta-style codecs use it for
// cell indices and small counters, where fixed-width words would multiply
// the blob size by ~8 for values that are almost always tiny.
func (e *Encoder) UVar(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// SVar appends a signed zigzag varint (small magnitudes of either sign stay
// one byte; -1 sentinels cost one byte instead of eight).
func (e *Encoder) SVar(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// VarLen appends a collection length as a varint.
func (e *Encoder) VarLen(n int) { e.UVar(uint64(n)) }

// Section appends a tag marking the start of a named sub-structure. The
// matching Decoder.Section verifies the tag, turning most misalignment bugs
// and silent corruption into immediate, located decode errors.
func (e *Encoder) Section(tag string) { e.Str(tag) }

// Decoder reads a state blob produced by Encoder. The first failed read
// latches an error; all subsequent reads return zero values, so callers can
// decode a whole structure and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// U64 reads a fixed-width little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated u64 (%d bytes left)", len(d.buf)-d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads a signed 64-bit integer.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Byte reads one raw byte.
func (d *Decoder) Byte() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bytes reads a length-prefixed byte string. The returned slice aliases the
// decoder's buffer.
func (d *Decoder) Bytes() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("byte string claims %d bytes, %d left", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Len reads a collection length and validates it against max (a sanity
// ceiling chosen by the caller) and against the bytes left.
func (d *Decoder) Len(max int) int { return d.checkLen(d.U64(), max) }

// checkLen fails the decoder on a length past max or past the bytes left:
// every encoded element takes at least one byte, so a longer count is
// corrupt and must not size an allocation.
func (d *Decoder) checkLen(n uint64, max int) int {
	if d.err != nil {
		return 0
	}
	if n > uint64(max) {
		d.fail("length %d exceeds sanity bound %d", n, max)
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail("length %d exceeds the %d bytes left", n, d.Remaining())
		return 0
	}
	return int(n)
}

// UVar reads an unsigned base-128 varint.
func (d *Decoder) UVar() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.off += n
	return v
}

// SVar reads a signed zigzag varint.
func (d *Decoder) SVar() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// VarLen reads a varint collection length and validates it like Len.
func (d *Decoder) VarLen(max int) int { return d.checkLen(d.UVar(), max) }

// Section reads a tag and verifies it matches want, anchoring decode errors
// to the sub-structure where the stream first went wrong.
func (d *Decoder) Section(want string) {
	got := d.Str()
	if d.err == nil && got != want {
		d.fail("section tag %q, want %q", got, want)
	}
}
