package wire

// Protocol codecs and their registry. Every replication protocol here
// frames a message as a one-byte tag followed by the fields of its
// type in wire order. A protocol declares its message set once, as a
// tag table handed to NewCodec — one Row per message binding a tag to
// the message's field list (see Coder) — and NewCodec registers the
// resulting codec under the protocol's name, which lets
// protocol-agnostic layers, the TCP transport above all, encode and
// decode that protocol's messages without importing its package. Tag
// namespaces are per-protocol: two codecs are free to use the same tag
// byte for different messages, because the codec is named out of band
// (a transport is configured with exactly one codec).

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/xft-consensus/xft/internal/smr"
)

// ErrBadMessage reports an encoding that is truncated, malformed, or
// carries trailing bytes.
var ErrBadMessage = errors.New("wire: malformed message encoding")

// Codec is a registry entry: the two functions a transport needs to
// carry one protocol's message set.
type Codec struct {
	// Name identifies the codec in the registry ("xpaxos", "paxos", …).
	Name string
	// Append writes m's encoding (tag byte + body) to w. It errors on
	// message types outside the codec's message set.
	Append func(w *Buf, m smr.Message) error
	// Decode parses one encoded message. Implementations must reject
	// trailing bytes so every encoding stays canonical, and must
	// tolerate hostile input (the codecs here are all fuzz-tested).
	// Decoded byte-slice fields may alias the input buffer.
	Decode func(b []byte) (smr.Message, error)
}

var (
	regMu  sync.RWMutex
	codecs = make(map[string]Codec)
)

// Register adds c to the process-wide registry. Protocol packages call
// it from init, so importing a protocol package makes its codec
// available to any transport in the process. Registering a duplicate
// name or an incomplete codec panics: both are programming errors.
func Register(c Codec) {
	if c.Name == "" || c.Append == nil || c.Decode == nil {
		panic("wire: incomplete codec registration")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := codecs[c.Name]; dup {
		panic("wire: duplicate codec registration: " + c.Name)
	}
	codecs[c.Name] = c
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := codecs[name]
	return c, ok
}

// Codecs returns the registered codec names, sorted.
func Codecs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(codecs))
	for name := range codecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Encode marshals m with the named codec into a fresh buffer.
func Encode(name string, m smr.Message) ([]byte, error) {
	c, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("wire: no codec registered as %q", name)
	}
	w := New(m.WireSize())
	if err := c.Append(w, m); err != nil {
		return nil, err
	}
	return w.Done(), nil
}

// Decode parses one message with the named codec.
func Decode(name string, b []byte) (smr.Message, error) {
	c, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("wire: no codec registered as %q", name)
	}
	return c.Decode(b)
}

// TagRow is one line of a protocol's tag table; Row builds it.
type TagRow struct {
	tag    byte
	name   string // the message's Type()
	encode func(c *Coder, m smr.Message) bool
	decode func(c *Coder) smr.Message
}

// Row binds tag to the message type *T, whose fields in wire order are
// the field list fields. Tag values are part of the wire format and
// must not be renumbered.
func Row[T any, P interface {
	*T
	smr.Message
}](tag byte, fields func(P, *Coder)) TagRow {
	return TagRow{
		tag:  tag,
		name: P(new(T)).Type(),
		encode: func(c *Coder, m smr.Message) bool {
			p, ok := m.(P)
			if ok {
				fields(p, c)
			}
			return ok
		},
		decode: func(c *Coder) smr.Message {
			p := P(new(T))
			fields(p, c)
			return p
		},
	}
}

// TagCodec is one protocol's wire codec: a one-byte message-type tag
// followed by the message's fields. It is canonical — every byte string
// it accepts decodes to exactly one message, which re-encodes to the
// same bytes (each protocol's fuzz target asserts this).
type TagCodec struct {
	name   string
	byTag  [256]*TagRow
	byName map[string]*TagRow
}

// NewCodec builds a protocol's codec from its tag table and registers
// it under name. A message is found in the table by its Type(), so the
// table must not name a tag or a Type() twice; either is a programming
// error and panics, as a duplicate registration does.
func NewCodec(name string, table ...TagRow) *TagCodec {
	t := &TagCodec{name: name, byName: make(map[string]*TagRow, len(table))}
	for i := range table {
		row := &table[i]
		if t.byTag[row.tag] != nil || t.byName[row.name] != nil {
			panic(fmt.Sprintf("wire: codec %s lists tag %d or type %q twice", name, row.tag, row.name))
		}
		t.byTag[row.tag], t.byName[row.name] = row, row
	}
	Register(Codec{Name: name, Append: t.Append, Decode: t.Decode})
	return t
}

// Tags returns the table as tag → message Type().
func (t *TagCodec) Tags() map[byte]string {
	tags := make(map[byte]string, len(t.byName))
	for name, row := range t.byName {
		tags[row.tag] = name
	}
	return tags
}

// Append appends m's wire encoding (tag byte + fields) to w. It errors,
// leaving w as it was, on a message outside the table and on one that
// holds a value its field list cannot encode.
func (t *TagCodec) Append(w *Buf, m smr.Message) error {
	if m != nil {
		if row := t.byName[m.Type()]; row != nil {
			start := len(w.b)
			w.U8(row.tag)
			if c := Encoder(w); row.encode(c, m) && c.OK() {
				return nil
			}
			w.b = w.b[:start]
		}
	}
	return fmt.Errorf("%s: no wire encoding for %T", t.name, m)
}

// Marshal encodes m into a fresh buffer.
func (t *TagCodec) Marshal(m smr.Message) ([]byte, error) {
	w := New(m.WireSize())
	if err := t.Append(w, m); err != nil {
		return nil, err
	}
	return w.Done(), nil
}

// Decode parses one encoded message. Byte-slice fields of the result
// alias b; the caller must not reuse the buffer. Trailing bytes are
// rejected so the encoding stays canonical.
func (t *TagCodec) Decode(b []byte) (smr.Message, error) {
	if len(b) == 0 {
		return nil, ErrBadMessage
	}
	row := t.byTag[b[0]]
	if row == nil {
		return nil, fmt.Errorf("%s: unknown message tag %d: %w", t.name, b[0], ErrBadMessage)
	}
	c := Decoder(b[1:])
	m := row.decode(c)
	if !c.Done() {
		return nil, ErrBadMessage
	}
	return m, nil
}
