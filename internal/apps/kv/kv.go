// Package kv provides the replicated applications used by the
// microbenchmarks: a null service (the paper's 1/0 and 4/0 benchmarks
// execute no application logic) and a deterministic key-value store.
package kv

import (
	"errors"
	"sort"

	"github.com/xft-consensus/xft/internal/wire"
)

// Null is the paper's null service: Execute ignores the operation and
// returns a reply of fixed size. The zero value replies with an empty
// payload (the 1/0 and 4/0 benchmarks use 0-byte replies).
type Null struct {
	// ReplySize is the size of every reply in bytes.
	ReplySize int
	// Executed counts operations (for tests).
	Executed uint64
}

// Execute implements smr.Application.
func (n *Null) Execute(op []byte) []byte {
	n.Executed++
	return make([]byte, n.ReplySize)
}

// Snapshot implements smr.Application.
func (n *Null) Snapshot() []byte {
	return wire.New(16).U64(n.Executed).Done()
}

// Restore implements smr.Application.
func (n *Null) Restore(snap []byte) error {
	v, ok := wire.NewReader(snap).U64()
	if !ok {
		return errors.New("kv: bad null snapshot")
	}
	n.Executed = v
	return nil
}

// Op codes for the Store.
const (
	OpPut uint8 = iota + 1
	OpGet
	OpDelete
	OpAppend
)

// PutOp encodes a put operation.
func PutOp(key string, value []byte) []byte {
	return wire.New(len(key) + len(value) + 16).U8(OpPut).Str(key).Bytes(value).Done()
}

// GetOp encodes a get operation.
func GetOp(key string) []byte {
	return wire.New(len(key) + 8).U8(OpGet).Str(key).Done()
}

// DeleteOp encodes a delete operation.
func DeleteOp(key string) []byte {
	return wire.New(len(key) + 8).U8(OpDelete).Str(key).Done()
}

// AppendOp encodes an append operation.
func AppendOp(key string, value []byte) []byte {
	return wire.New(len(key) + len(value) + 16).U8(OpAppend).Str(key).Bytes(value).Done()
}

// Reply status bytes.
const (
	StatusOK uint8 = iota
	StatusNotFound
	StatusBadOp
)

// Store is a deterministic in-memory key-value store. Replies are
// status-prefixed: [status][payload].
type Store struct {
	data map[string][]byte
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{data: make(map[string][]byte)} }

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.data) }

// Get returns the value stored under key (for tests; replicated reads
// go through Execute).
func (s *Store) Get(key string) ([]byte, bool) {
	v, ok := s.data[key]
	return v, ok
}

// Execute implements smr.Application.
func (s *Store) Execute(op []byte) []byte {
	rd := wire.NewReader(op)
	code, ok := rd.U8()
	if !ok {
		return []byte{StatusBadOp}
	}
	switch code {
	case OpPut:
		key, ok1 := rd.Str()
		val, ok2 := rd.Bytes()
		if !ok1 || !ok2 {
			return []byte{StatusBadOp}
		}
		s.data[key] = append([]byte(nil), val...)
		return []byte{StatusOK}
	case OpGet:
		key, ok1 := rd.Str()
		if !ok1 {
			return []byte{StatusBadOp}
		}
		v, found := s.data[key]
		if !found {
			return []byte{StatusNotFound}
		}
		return append([]byte{StatusOK}, v...)
	case OpDelete:
		key, ok1 := rd.Str()
		if !ok1 {
			return []byte{StatusBadOp}
		}
		if _, found := s.data[key]; !found {
			return []byte{StatusNotFound}
		}
		delete(s.data, key)
		return []byte{StatusOK}
	case OpAppend:
		key, ok1 := rd.Str()
		val, ok2 := rd.Bytes()
		if !ok1 || !ok2 {
			return []byte{StatusBadOp}
		}
		s.data[key] = append(s.data[key], val...)
		return []byte{StatusOK}
	default:
		return []byte{StatusBadOp}
	}
}

// Snapshot implements smr.Application: keys serialized in sorted order
// so snapshots are deterministic across replicas, into one buffer of
// exactly the encoding's size.
func (s *Store) Snapshot() []byte {
	keys := make([]string, 0, len(s.data))
	size := 4
	for k, v := range s.data {
		keys = append(keys, k)
		size += 8 + len(k) + len(v)
	}
	sort.Strings(keys)
	w := wire.New(size).U32(uint32(len(keys)))
	for _, k := range keys {
		w.Str(k).Bytes(s.data[k])
	}
	return w.Done()
}

// ---------------------------------------------------------------------------
// Checker adapter: per-client monotone write workloads
// ---------------------------------------------------------------------------
//
// Adversarial campaigns drive each client through a stream of writes to
// a client-private key, with the value carrying a strictly increasing
// write sequence number. Because every value is self-describing,
// per-client linearizability reduces to checkable facts: acknowledged
// writes must never regress, and the final replicated value must be at
// least the last acknowledged sequence number.

// SeqPutOp encodes a put of write number seq to the client's key.
func SeqPutOp(key string, seq uint64) []byte {
	return PutOp(key, wire.New(8).U64(seq).Done())
}

// SeqFromValue decodes a value written by SeqPutOp.
func SeqFromValue(v []byte) (uint64, bool) {
	return wire.NewReader(v).U64()
}

// LastSeq reports the write sequence number currently stored under
// key, or ok=false if the key is absent or was not written by SeqPutOp.
func (s *Store) LastSeq(key string) (uint64, bool) {
	v, ok := s.data[key]
	if !ok {
		return 0, false
	}
	return SeqFromValue(v)
}

// Restore implements smr.Application.
func (s *Store) Restore(snap []byte) error {
	rd := wire.NewReader(snap)
	n, ok := rd.U32()
	if !ok {
		return errors.New("kv: bad snapshot header")
	}
	data := make(map[string][]byte, n)
	for i := uint32(0); i < n; i++ {
		k, ok1 := rd.Str()
		v, ok2 := rd.Bytes()
		if !ok1 || !ok2 {
			return errors.New("kv: truncated snapshot")
		}
		data[k] = append([]byte(nil), v...)
	}
	s.data = data
	return nil
}
