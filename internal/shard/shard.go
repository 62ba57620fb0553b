// Package shard partitions a key space across several replication
// groups (shards) and routes client operations to the group that owns
// them. XFT replicates each group with its own XPaxos instance; this
// package supplies the two client-side pieces that turn N independent
// groups into one sharded service:
//
//   - Ring: consistent hashing over the key space. Each group claims
//     many virtual points on a 64-bit hash ring, so keys spread evenly
//     and adding or removing a group moves only the keys adjacent to
//     its points — not a full reshuffle.
//   - Router: an smr.Node hosting one XPaxos client per group behind
//     an smr.GroupMux. Invoke extracts the operation's key, hashes it
//     to a group, and hands the op to that group's client; everything
//     else (replies, suspicion gossip, timers, health events) routes
//     through the mux. Each per-group client keeps its own view guess,
//     so a view change in one shard never perturbs the others.
//
// The Router shares its process's transport connections, crypto
// pool, and event loop across all shards — the same shared-plane
// design the replica side uses (smr.GroupMux over one transport
// endpoint and one WAL).
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// DefaultVirtualNodes is the number of ring points per group. 64
// points keep the expected imbalance across groups within a few
// percent without bloating lookups (lookup is a binary search, so the
// cost is logarithmic in groups x points).
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring mapping keys to groups. It is
// immutable after construction and safe for concurrent readers.
type Ring struct {
	points []ringPoint // sorted by hash
	groups []smr.GroupID
}

type ringPoint struct {
	hash  uint64
	group smr.GroupID
}

// NewRing builds a ring over the given groups with vnodes virtual
// points each (DefaultVirtualNodes when vnodes <= 0). Group order does
// not matter; duplicate group IDs are rejected.
func NewRing(groups []smr.GroupID, vnodes int) (*Ring, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one group")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[smr.GroupID]bool, len(groups))
	r := &Ring{
		points: make([]ringPoint, 0, len(groups)*vnodes),
		groups: append([]smr.GroupID(nil), groups...),
	}
	sort.Slice(r.groups, func(i, j int) bool { return r.groups[i] < r.groups[j] })
	for _, g := range r.groups {
		if seen[g] {
			return nil, fmt.Errorf("shard: duplicate group %d in ring", g)
		}
		seen[g] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(g, v), group: g})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by group ID so the ring is
		// deterministic across processes regardless of input order.
		return r.points[i].group < r.points[j].group
	})
	return r, nil
}

// pointHash places virtual point v of group g on the ring.
func pointHash(g smr.GroupID, v int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	buf[0], buf[1], buf[2], buf[3] = byte(g), byte(g>>8), byte(g>>16), byte(g>>24)
	buf[4], buf[5], buf[6], buf[7] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// KeyHash is the ring's key hash (finalized FNV-1a 64). Exposed so
// load generators can pin keys to shards deterministically.
func KeyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is a 64-bit avalanche finalizer (the MurmurHash3 fmix64
// constants). Raw FNV-1a over short, nearly identical inputs — ring
// point labels, short sequential keys — leaves the high bits badly
// correlated, which clusters points on the ring and skews shard
// ownership several-fold; the finalizer spreads them uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Group returns the group owning key: the first ring point clockwise
// from the key's hash.
func (r *Ring) Group(key string) smr.GroupID {
	h := KeyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].group
}

// Groups returns the ring's group IDs in ascending order.
func (r *Ring) Groups() []smr.GroupID {
	return append([]smr.GroupID(nil), r.groups...)
}

// Router routes client operations to per-group XPaxos clients over one
// shared runtime slot. It implements smr.Node: hand it to a transport
// or simulator node exactly like a single client.
type Router struct {
	ring    *Ring
	mux     *smr.GroupMux
	clients map[smr.GroupID]*xpaxos.Client

	// KeyFn extracts the routing key from an operation. The default
	// understands the kv app's op layout; ops it rejects are routed by
	// hashing the raw op bytes, so unknown payloads still spread
	// deterministically instead of failing.
	KeyFn func(op []byte) (string, bool)
}

// NewRouter builds a router over ring, constructing one client per
// group with mkClient. Clients register with the router's GroupMux, so
// their sends leave wrapped in smr.GroupMessage and inbound traffic
// routes back by group.
func NewRouter(ring *Ring, mkClient func(g smr.GroupID) (*xpaxos.Client, error)) (*Router, error) {
	r := &Router{
		ring:    ring,
		mux:     smr.NewGroupMux(),
		clients: make(map[smr.GroupID]*xpaxos.Client),
		KeyFn:   kv.OpKey,
	}
	for _, g := range ring.Groups() {
		cl, err := mkClient(g)
		if err != nil {
			return nil, fmt.Errorf("shard: building client for group %d: %w", g, err)
		}
		if err := r.mux.Register(g, cl); err != nil {
			return nil, err
		}
		r.clients[g] = cl
	}
	return r, nil
}

// GroupFor returns the group that will execute op.
func (r *Router) GroupFor(op []byte) smr.GroupID {
	if key, ok := r.KeyFn(op); ok {
		return r.ring.Group(key)
	}
	// Not a keyed op: hash the raw bytes so the placement is still
	// deterministic and balanced.
	h := fnv.New64a()
	h.Write(op)
	hash := mix64(h.Sum64())
	i := sort.Search(len(r.ring.points), func(i int) bool { return r.ring.points[i].hash >= hash })
	if i == len(r.ring.points) {
		i = 0
	}
	return r.ring.points[i].group
}

// Invoke routes op to its shard's client. Like xpaxos.Client.Invoke it
// must be called from event context. It reports whether the request
// went out: while the shard's client has no room (xpaxos.Client.CanInvoke)
// nothing is sent and the caller offers op again later.
func (r *Router) Invoke(op []byte) (smr.GroupID, bool) {
	g := r.GroupFor(op)
	if !r.clients[g].CanInvoke() {
		return g, false
	}
	r.clients[g].Invoke(op)
	return g, true
}

// Client returns group g's client (per-shard view guess, counters).
func (r *Router) Client(g smr.GroupID) *xpaxos.Client { return r.clients[g] }

// Ring returns the router's ring.
func (r *Router) Ring() *Ring { return r.ring }

// GroupStats implements smr.GroupStatsReporter.
func (r *Router) GroupStats() smr.GroupStats { return r.mux.GroupStats() }

// Init implements smr.Node.
func (r *Router) Init(env smr.Env) { r.mux.Init(env) }

// Step implements smr.Node: Invoke routes by key, everything else
// multiplexes by group.
func (r *Router) Step(ev smr.Event) {
	if inv, ok := ev.(smr.Invoke); ok {
		r.Invoke(inv.Op)
		return
	}
	r.mux.Step(ev)
}

var (
	_ smr.Node               = (*Router)(nil)
	_ smr.GroupStatsReporter = (*Router)(nil)
)
