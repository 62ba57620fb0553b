package wire

// Coder walks one field list in either direction. A wire type is
// described once, as a function that names its fields in wire order:
//
//	func (r *Request) code(c *wire.Coder) {
//		wire.Bytes(c, &r.Op)
//		wire.U64(c, &r.TS)
//		wire.I64(c, &r.Client)
//		wire.Bytes(c, &r.Sig)
//	}
//
// Handed an encoding Coder the function appends each field to a Buf;
// handed a decoding one it fills the same fields from the input, in
// place. What is written is therefore what is read, by construction.
//
// Decoding pulls from a Reader, so the primitives decode here exactly
// as they do there, and is sticky: the first read that fails (short
// input, a bool byte other than 0 or 1, a count the remaining input
// cannot hold) marks the Coder bad and drops the unread input, so every
// later call fails where it stands without reading or allocating. A
// field list needs no error handling of its own; its caller asks Done
// once. Decoded byte strings alias the input; an empty one decodes to
// an empty, non-nil slice and a zero-count slice to nil.
type Coder struct {
	w   *Buf   // encoding target; nil when decoding
	r   Reader // decoding input
	bad bool
}

// Encoder returns a Coder that appends to w. It lives inside w, so
// handing it to a field list allocates nothing; w has one at a time.
func Encoder(w *Buf) *Coder {
	w.enc = Coder{w: w}
	return &w.enc
}

// Decoder returns a Coder that reads b.
func Decoder(b []byte) *Coder { return &Coder{r: Reader{b: b}} }

// Decoding reports the direction, for the few field lists that must
// allocate before they can be filled.
func (c *Coder) Decoding() bool { return c.w == nil }

// Fail marks the Coder bad. Field lists call it for a value that has
// no encoding, or a decoded one that no encoder would have produced.
func (c *Coder) Fail() {
	c.bad = true
	c.r.b = c.r.b[:c.r.pos]
}

// OK reports that no call has failed so far.
func (c *Coder) OK() bool { return !c.bad }

// Done reports a complete walk: nothing failed and, when decoding, the
// input is used up (trailing bytes would make the encoding ambiguous).
func (c *Coder) Done() bool { return !c.bad && c.r.Remaining() == 0 }

// got takes the ok of one Reader call: a failed one fails the Coder.
func (c *Coder) got(ok bool) bool {
	if !ok {
		c.Fail()
	}
	return ok
}

// U8 codes a one-byte integer.
func U8[T ~uint8](c *Coder, v *T) {
	if c.w != nil {
		c.w.U8(uint8(*v))
	} else if x, ok := c.r.U8(); c.got(ok) {
		*v = T(x)
	}
}

// U64 codes a fixed-width little-endian unsigned integer.
func U64[T ~uint64](c *Coder, v *T) {
	if c.w != nil {
		c.w.U64(uint64(*v))
	} else if x, ok := c.r.U64(); c.got(ok) {
		*v = T(x)
	}
}

// I64 codes a signed integer (node ids) in eight bytes.
func I64[T ~int | ~int64](c *Coder, v *T) {
	if c.w != nil {
		c.w.I64(int64(*v))
	} else if x, ok := c.r.I64(); c.got(ok) {
		*v = T(x)
	}
}

// Bool codes a bool as one byte; only 0 and 1 decode.
func (c *Coder) Bool(v *bool) {
	if c.w != nil {
		c.w.Bool(*v)
	} else if x, ok := c.r.Bool(); c.got(ok) {
		*v = x
	}
}

// Raw codes a fixed-size field such as a digest, passed as a slice of
// the array it lives in: no length prefix, filled in place.
func (c *Coder) Raw(p []byte) {
	if c.w != nil {
		c.w.Raw(p)
	} else if src, ok := c.r.Raw(len(p)); c.got(ok) {
		copy(p, src)
	}
}

// Bytes codes a length-prefixed byte string.
func Bytes[T ~[]byte](c *Coder, p *T) {
	if c.w != nil {
		c.w.Bytes(*p)
	} else if src, ok := c.r.Bytes(); c.got(ok) {
		*p = T(src)
	}
}

// Str codes a length-prefixed string.
func (c *Coder) Str(s *string) {
	if c.w != nil {
		c.w.Str(*s)
	} else if x, ok := c.r.Str(); c.got(ok) {
		*s = x
	}
}

// Count codes an element count. Encoding writes n and returns it.
// Decoding returns the count read, after checking that the remaining
// input can hold that many elements of at least minElem bytes each: a
// hostile count fails here, before anything is allocated for it. It
// returns 0 once the Coder is bad.
func (c *Coder) Count(n, minElem int) int {
	if c.w != nil {
		c.w.U32(uint32(n))
		return n
	}
	got, ok := c.r.U32()
	if !c.got(ok && int64(got)*int64(minElem) <= int64(c.r.Remaining())) {
		return 0
	}
	return int(got)
}

// Slice codes a counted slice, each element by its own field list;
// minElem is the element's smallest encoding (see Count).
func Slice[T any](c *Coder, s *[]T, minElem int, elem func(*T, *Coder)) {
	n := c.Count(len(*s), minElem)
	if c.w == nil && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n && !c.bad; i++ {
		elem(&(*s)[i], c)
	}
}

// Opt codes an optional value: a presence byte, then the value's field
// list if it is there.
func Opt[T any](c *Coder, p **T, fields func(*T, *Coder)) {
	present := *p != nil
	c.Bool(&present)
	if !present || c.bad {
		return
	}
	if c.w == nil {
		*p = new(T)
	}
	fields(*p, c)
}
