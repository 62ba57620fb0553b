package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
)

// The TCP transport frames every message explicitly: a 4-byte
// little-endian header word followed by the payload. The header packs
// the payload length into the low 30 bits and a frame kind into the
// top 2 bits, so protocol messages and transport-level control frames
// (keepalive ping/pong) share one stream without a separate byte of
// overhead — a kind-0 frame is bit-identical to the original
// length-prefixed format. Explicit framing keeps reads robust against
// partial delivery (a frame is either read whole or the connection
// errors out) and lets the receiver reject hostile or corrupt length
// prefixes before allocating.

// Frame kinds. FrameMsg carries a protocol message (sender header +
// wire codec payload); FramePing and FramePong are the transport's
// keepalive probes, carrying an opaque 8-byte timestamp that the pong
// echoes back untouched. The receiver skips a frame of any other kind.
//
// Kind 3 is retired: it once carried a group-multiplexed message
// (sender header + 4-byte group ID + payload). The header has only two
// kind bits, so 3 is the one value left; it must not be given another
// meaning, because a peer built before the retirement may still send
// it.
const (
	FrameMsg byte = iota
	FramePing
	FramePong
)

// MaxFrameSize bounds a frame payload (16 MiB). A corrupt or hostile
// length prefix fails fast instead of provoking a huge allocation.
const MaxFrameSize = 16 << 20

// frameKindShift positions the kind bits above the 30-bit length
// field. MaxFrameSize needs 25 bits; lengths with bits 25..29 set are
// rejected by the MaxFrameSize check, so the two kind bits are the
// only header bits a valid frame may add.
const frameKindShift = 30

// ErrFrameTooLarge reports a frame exceeding MaxFrameSize, on either
// the write or the read side.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameSize")

// WriteFrame writes payload as one length-prefixed message frame
// (kind FrameMsg). Header and payload go out via net.Buffers — a
// single writev on TCP connections, with no intermediate copy of the
// payload. Callers sharing one connection must serialize WriteFrame
// calls (the peer writer goroutine owns its connection), as frames
// are not atomic against concurrent unsynchronized writers.
func WriteFrame(w io.Writer, payload []byte) error {
	return WriteFrameKind(w, FrameMsg, payload)
}

// WriteFrameKind writes payload as one frame of the given kind.
func WriteFrameKind(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload))|uint32(kind)<<frameKindShift)
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one frame of any kind and returns its payload,
// reusing buf's storage when it is large enough (pass the previous
// return value to amortize allocations). Callers that need to
// distinguish control frames use ReadFrameKind; ReadFrame suits
// streams known to carry only messages. A connection closed mid-frame
// yields io.ErrUnexpectedEOF; a clean close before any header byte
// yields io.EOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	_, payload, err := ReadFrameKind(r, buf)
	return payload, err
}

// ReadFrameKind reads one frame, returning its kind and payload. The
// payload reuses buf's storage when it is large enough.
func ReadFrameKind(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	word := binary.LittleEndian.Uint32(hdr[:])
	kind := byte(word >> frameKindShift)
	n := int(word &^ (3 << frameKindShift))
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return kind, buf, nil
}
