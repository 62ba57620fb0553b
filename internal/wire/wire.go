// Package wire is the deterministic binary encoding every protocol in
// this repository signs, MACs and puts on the wire: fixed-width
// integers, length-prefixed byte strings and explicit field order, so
// encodings are stable.
//
// Buf appends and Reader pulls, one primitive at a time; signing
// payloads and the applications' operations use them directly. A wire
// type — anything a message carries — is instead described once, as a
// field list over Coder (coder.go) that both encodes it into a Buf and
// decodes it from a Reader, and a protocol's message set is a tag
// table of such lists handed to NewCodec (registry.go), which also
// makes the codec available by name to the transport.
package wire

import (
	"encoding/binary"
	"sync"
)

// Buf accumulates a deterministic encoding. The zero value is ready to
// use.
type Buf struct {
	b   []byte
	enc Coder // see Encoder
}

// New returns a Buf with capacity preallocated.
func New(capacity int) *Buf { return &Buf{b: make([]byte, 0, capacity)} }

// Reset truncates the buffer, keeping its capacity for reuse.
func (w *Buf) Reset() *Buf {
	w.b = w.b[:0]
	return w
}

// bufPool recycles Bufs for hot-path payload construction. Buffers
// retain their grown capacity across uses, so steady-state encoding
// allocates nothing.
var bufPool = sync.Pool{New: func() any { return New(256) }}

// Get returns a reset Buf from the pool. Pair with Put once the bytes
// from Done are no longer referenced: the encoding returned by Done
// aliases the Buf's storage, so it must not be retained past Put.
func Get() *Buf { return bufPool.Get().(*Buf).Reset() }

// Put returns w to the pool. The caller must not use w, or any slice
// obtained from its Done, afterwards.
func Put(w *Buf) { bufPool.Put(w) }

// U8 appends a fixed-width uint8.
func (w *Buf) U8(v uint8) *Buf {
	w.b = append(w.b, v)
	return w
}

// U32 appends a fixed-width little-endian uint32.
func (w *Buf) U32(v uint32) *Buf {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	w.b = append(w.b, tmp[:]...)
	return w
}

// U64 appends a fixed-width little-endian uint64.
func (w *Buf) U64(v uint64) *Buf {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.b = append(w.b, tmp[:]...)
	return w
}

// I64 appends a fixed-width little-endian int64.
func (w *Buf) I64(v int64) *Buf { return w.U64(uint64(v)) }

// Bool appends a bool as one byte (1 or 0).
func (w *Buf) Bool(v bool) *Buf {
	if v {
		return w.U8(1)
	}
	return w.U8(0)
}

// Bytes appends a length-prefixed byte string.
func (w *Buf) Bytes(p []byte) *Buf {
	w.U32(uint32(len(p)))
	w.b = append(w.b, p...)
	return w
}

// Str appends a length-prefixed string.
func (w *Buf) Str(s string) *Buf { return w.Bytes([]byte(s)) }

// Raw appends bytes without a length prefix (for fixed-size fields such
// as digests).
func (w *Buf) Raw(p []byte) *Buf {
	w.b = append(w.b, p...)
	return w
}

// Done returns the accumulated encoding.
func (w *Buf) Done() []byte { return w.b }

// Reader decodes values written by Buf in the same order. Every method
// reports ok=false once the input is exhausted or malformed; callers
// check once per field.
type Reader struct {
	b   []byte
	pos int
}

// NewReader wraps an encoding produced by Buf.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// U8 reads a fixed-width uint8.
func (r *Reader) U8() (uint8, bool) {
	if r.pos+1 > len(r.b) {
		return 0, false
	}
	v := r.b[r.pos]
	r.pos++
	return v, true
}

// U32 reads a fixed-width uint32.
func (r *Reader) U32() (uint32, bool) {
	if r.pos+4 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v, true
}

// U64 reads a fixed-width uint64.
func (r *Reader) U64() (uint64, bool) {
	if r.pos+8 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, true
}

// I64 reads a fixed-width int64.
func (r *Reader) I64() (int64, bool) {
	v, ok := r.U64()
	return int64(v), ok
}

// Bool reads a bool byte. Only 0 and 1 are accepted, keeping the
// encoding canonical: every valid encoding re-encodes to identical
// bytes.
func (r *Reader) Bool() (bool, bool) {
	v, ok := r.U8()
	if !ok || v > 1 {
		return false, false
	}
	return v == 1, true
}

// Bytes reads a length-prefixed byte string. The returned slice
// aliases the input.
func (r *Reader) Bytes() ([]byte, bool) {
	n, ok := r.U32()
	if !ok || r.pos+int(n) > len(r.b) {
		return nil, false
	}
	v := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return v, true
}

// Str reads a length-prefixed string.
func (r *Reader) Str() (string, bool) {
	b, ok := r.Bytes()
	return string(b), ok
}

// Raw reads exactly n bytes without a length prefix.
func (r *Reader) Raw(n int) ([]byte, bool) {
	if r.pos+n > len(r.b) {
		return nil, false
	}
	v := r.b[r.pos : r.pos+n]
	r.pos += n
	return v, true
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }
