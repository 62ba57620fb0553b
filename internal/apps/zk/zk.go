// Package zk implements a ZooKeeper-like coordination service: a
// hierarchical namespace of versioned znodes with create / delete /
// set / get / children / exists operations and sequential nodes,
// replicated deterministically through the smr.Application interface.
//
// It stands in for Apache ZooKeeper 3.4.6 in the paper's
// macro-benchmark (Section 5.5, Figure 10): the benchmark issues 1 kB
// SetData operations against this store replicated by Zab, XPaxos,
// Paxos, PBFT and Zyzzyva.
package zk

import (
	"errors"
	"sort"
	"strconv"
	"strings"

	"github.com/xft-consensus/xft/internal/wire"
)

// Op codes.
const (
	OpCreate uint8 = iota + 1
	OpDelete
	OpSetData
	OpGetData
	OpExists
	OpGetChildren
	OpSync
)

// Status codes returned as the first reply byte.
const (
	StatusOK uint8 = iota
	StatusNoNode
	StatusNodeExists
	StatusBadVersion
	StatusNotEmpty
	StatusNoParent
	StatusBadOp
)

// CreateMode selects plain or sequential creation.
type CreateMode uint8

const (
	// ModePersistent creates a regular znode.
	ModePersistent CreateMode = iota
	// ModeSequential appends a monotonically increasing, zero-padded
	// counter to the name.
	ModeSequential
)

// znode is one node of the tree.
type znode struct {
	data     []byte
	version  uint64
	children map[string]bool
	// cseq numbers sequential children.
	cseq uint64
}

// Store is the replicated coordination-service state machine.
type Store struct {
	nodes map[string]*znode
}

// NewStore returns a store containing only the root znode "/".
func NewStore() *Store {
	s := &Store{nodes: make(map[string]*znode)}
	s.nodes["/"] = &znode{children: make(map[string]bool)}
	return s
}

// --- Operation encoding ---------------------------------------------------

// CreateOp encodes a create operation.
func CreateOp(path string, data []byte, mode CreateMode) []byte {
	return wire.New(len(path) + len(data) + 16).U8(OpCreate).Str(path).Bytes(data).U8(uint8(mode)).Done()
}

// DeleteOp encodes a delete (version −1 semantics: any version).
func DeleteOp(path string, version int64) []byte {
	return wire.New(len(path) + 16).U8(OpDelete).Str(path).I64(version).Done()
}

// SetOp encodes a set-data operation (version −1 = unconditional).
func SetOp(path string, data []byte, version int64) []byte {
	return wire.New(len(path) + len(data) + 16).U8(OpSetData).Str(path).Bytes(data).I64(version).Done()
}

// GetOp encodes a get-data operation.
func GetOp(path string) []byte {
	return wire.New(len(path) + 8).U8(OpGetData).Str(path).Done()
}

// ExistsOp encodes an exists check.
func ExistsOp(path string) []byte {
	return wire.New(len(path) + 8).U8(OpExists).Str(path).Done()
}

// ChildrenOp encodes a get-children operation.
func ChildrenOp(path string) []byte {
	return wire.New(len(path) + 8).U8(OpGetChildren).Str(path).Done()
}

// --- Reply decoding helpers ------------------------------------------------

// ReplyStatus extracts the status byte.
func ReplyStatus(rep []byte) uint8 {
	if len(rep) == 0 {
		return StatusBadOp
	}
	return rep[0]
}

// ReplyData extracts (data, version) from a get-data reply.
func ReplyData(rep []byte) ([]byte, uint64, error) {
	if ReplyStatus(rep) != StatusOK {
		return nil, 0, errors.New("zk: error reply")
	}
	rd := wire.NewReader(rep[1:])
	data, ok1 := rd.Bytes()
	ver, ok2 := rd.U64()
	if !ok1 || !ok2 {
		return nil, 0, errors.New("zk: malformed reply")
	}
	return data, ver, nil
}

// ReplyPath extracts the created path from a create reply.
func ReplyPath(rep []byte) (string, error) {
	if ReplyStatus(rep) != StatusOK {
		return "", errors.New("zk: error reply")
	}
	p, ok := wire.NewReader(rep[1:]).Str()
	if !ok {
		return "", errors.New("zk: malformed reply")
	}
	return p, nil
}

// ReplyChildren extracts a children list.
func ReplyChildren(rep []byte) ([]string, error) {
	if ReplyStatus(rep) != StatusOK {
		return nil, errors.New("zk: error reply")
	}
	rd := wire.NewReader(rep[1:])
	n, ok := rd.U32()
	if !ok {
		return nil, errors.New("zk: malformed reply")
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		s, ok := rd.Str()
		if !ok {
			return nil, errors.New("zk: malformed reply")
		}
		out = append(out, s)
	}
	return out, nil
}

// --- State machine ----------------------------------------------------------

func parent(path string) (string, string, bool) {
	if path == "/" || !strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") {
		return "", "", false
	}
	i := strings.LastIndexByte(path, '/')
	dir := path[:i]
	if dir == "" {
		dir = "/"
	}
	return dir, path[i+1:], true
}

// Execute implements smr.Application.
func (s *Store) Execute(op []byte) []byte {
	rd := wire.NewReader(op)
	code, ok := rd.U8()
	if !ok {
		return []byte{StatusBadOp}
	}
	switch code {
	case OpCreate:
		path, ok1 := rd.Str()
		data, ok2 := rd.Bytes()
		mode, ok3 := rd.U8()
		if !ok1 || !ok2 || !ok3 {
			return []byte{StatusBadOp}
		}
		return s.create(path, data, CreateMode(mode))
	case OpDelete:
		path, ok1 := rd.Str()
		ver, ok2 := rd.I64()
		if !ok1 || !ok2 {
			return []byte{StatusBadOp}
		}
		return s.delete(path, ver)
	case OpSetData:
		path, ok1 := rd.Str()
		data, ok2 := rd.Bytes()
		ver, ok3 := rd.I64()
		if !ok1 || !ok2 || !ok3 {
			return []byte{StatusBadOp}
		}
		return s.setData(path, data, ver)
	case OpGetData:
		path, ok1 := rd.Str()
		if !ok1 {
			return []byte{StatusBadOp}
		}
		return s.getData(path)
	case OpExists:
		path, ok1 := rd.Str()
		if !ok1 {
			return []byte{StatusBadOp}
		}
		if _, found := s.nodes[path]; found {
			return []byte{StatusOK}
		}
		return []byte{StatusNoNode}
	case OpGetChildren:
		path, ok1 := rd.Str()
		if !ok1 {
			return []byte{StatusBadOp}
		}
		return s.children(path)
	case OpSync:
		return []byte{StatusOK}
	default:
		return []byte{StatusBadOp}
	}
}

func (s *Store) create(path string, data []byte, mode CreateMode) []byte {
	dir, name, ok := parent(path)
	if !ok || name == "" {
		return []byte{StatusBadOp}
	}
	p, found := s.nodes[dir]
	if !found {
		return []byte{StatusNoParent}
	}
	if mode == ModeSequential {
		p.cseq++
		name = name + zeroPad(p.cseq)
		path = strings.TrimSuffix(dir, "/") + "/" + name
	}
	if _, exists := s.nodes[path]; exists {
		return []byte{StatusNodeExists}
	}
	s.nodes[path] = &znode{data: append([]byte(nil), data...), children: make(map[string]bool)}
	p.children[name] = true
	return wire.New(len(path) + 8).U8(StatusOK).Str(path).Done()
}

func zeroPad(v uint64) string {
	const digits = 10
	var b [digits]byte
	for i := digits - 1; i >= 0; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[:])
}

func (s *Store) delete(path string, version int64) []byte {
	node, found := s.nodes[path]
	if !found {
		return []byte{StatusNoNode}
	}
	if path == "/" {
		return []byte{StatusBadOp}
	}
	if version >= 0 && uint64(version) != node.version {
		return []byte{StatusBadVersion}
	}
	if len(node.children) > 0 {
		return []byte{StatusNotEmpty}
	}
	dir, name, _ := parent(path)
	delete(s.nodes, path)
	if p, ok := s.nodes[dir]; ok {
		delete(p.children, name)
	}
	return []byte{StatusOK}
}

func (s *Store) setData(path string, data []byte, version int64) []byte {
	node, found := s.nodes[path]
	if !found {
		return []byte{StatusNoNode}
	}
	if version >= 0 && uint64(version) != node.version {
		return []byte{StatusBadVersion}
	}
	node.data = append(node.data[:0], data...)
	node.version++
	return wire.New(16).U8(StatusOK).U64(node.version).Done()
}

func (s *Store) getData(path string) []byte {
	node, found := s.nodes[path]
	if !found {
		return []byte{StatusNoNode}
	}
	return wire.New(len(node.data) + 16).U8(StatusOK).Bytes(node.data).U64(node.version).Done()
}

func (s *Store) children(path string) []byte {
	node, found := s.nodes[path]
	if !found {
		return []byte{StatusNoNode}
	}
	names := make([]string, 0, len(node.children))
	for name := range node.children {
		names = append(names, name)
	}
	sort.Strings(names)
	w := wire.New(64).U8(StatusOK).U32(uint32(len(names)))
	for _, name := range names {
		w.Str(name)
	}
	return w.Done()
}

// NodeCount returns the number of znodes (including the root).
func (s *Store) NodeCount() int { return len(s.nodes) }

// ---------------------------------------------------------------------------
// Checker adapter: session-semantics probes
// ---------------------------------------------------------------------------
//
// Adversarial campaigns use sequential creates under a client-private
// parent as the ZooKeeper workload: the store assigns each create a
// monotonically increasing counter suffix, so acknowledged creation
// paths encode the order the service executed a session's requests in.
// A session is consistent iff its acknowledged suffixes are strictly
// increasing in acknowledgment order and every acknowledged path exists
// in the final replicated tree.

// SeqSuffix extracts the sequential counter from a path created with
// ModeSequential ("/a/job0000000042" → 42). ok is false when the path
// does not end in the store's 10-digit counter format.
func SeqSuffix(path string) (uint64, bool) {
	const digits = 10
	if len(path) < digits {
		return 0, false
	}
	suffix := path[len(path)-digits:]
	v, err := strconv.ParseUint(suffix, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Exists reports whether path names a znode (for checkers; replicated
// reads go through Execute).
func (s *Store) Exists(path string) bool {
	_, ok := s.nodes[path]
	return ok
}

// ChildCount returns the number of children of path, or -1 if the
// znode does not exist.
func (s *Store) ChildCount(path string) int {
	n, ok := s.nodes[path]
	if !ok {
		return -1
	}
	return len(n.children)
}

// Snapshot implements smr.Application (deterministic ordering).
func (s *Store) Snapshot() []byte {
	paths := make([]string, 0, len(s.nodes))
	for p := range s.nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	w := wire.New(128 * len(paths)).U32(uint32(len(paths)))
	for _, p := range paths {
		n := s.nodes[p]
		w.Str(p).Bytes(n.data).U64(n.version).U64(n.cseq)
	}
	return w.Done()
}

// Restore implements smr.Application.
func (s *Store) Restore(snap []byte) error {
	rd := wire.NewReader(snap)
	count, ok := rd.U32()
	if !ok {
		return errors.New("zk: bad snapshot")
	}
	nodes := make(map[string]*znode, count)
	for i := uint32(0); i < count; i++ {
		p, ok1 := rd.Str()
		data, ok2 := rd.Bytes()
		ver, ok3 := rd.U64()
		cseq, ok4 := rd.U64()
		if !(ok1 && ok2 && ok3 && ok4) {
			return errors.New("zk: truncated snapshot")
		}
		nodes[p] = &znode{data: append([]byte(nil), data...), version: ver, cseq: cseq, children: make(map[string]bool)}
	}
	// Rebuild child links.
	for p := range nodes {
		if p == "/" {
			continue
		}
		dir, name, ok := parent(p)
		if !ok {
			return errors.New("zk: bad path in snapshot")
		}
		if pn, found := nodes[dir]; found {
			pn.children[name] = true
		}
	}
	s.nodes = nodes
	return nil
}
