package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// request is one operation a client issued. Times are ns since epoch.
type request struct {
	key     int32
	version uint32 // the version a put writes; 0 marks a get
	due     int64  // issue time (closed loop) or scheduled time (open loop)
	sent    int64  // when the op was handed to the client node
	done    int64  // when OnCommit fired; 0 while outstanding
}

// valueHeader is the (key, version) stamp at the front of every value,
// which lets the oracle check a reply without storing the values.
const valueHeader = 8

// client drives one xpaxos.Client: it makes the operations from the
// seed, issues them in closed or open loop, and checks every reply
// against what this client has had acknowledged. Its keys are private,
// so the check needs no other client's history.
type client struct {
	host
	w  *workload
	cl *xpaxos.Client

	// mu guards everything below. The client's event loop (onCommit)
	// and the harness goroutines (pacer, start, drain) all take it; it
	// is never held across Submit or Invoke.
	mu        sync.Mutex
	rng       *rand.Rand
	keys      []string
	order     []int32 // seeded visiting order of the keys
	value     []byte  // seeded bytes; the header is restamped per put
	issued    []uint32
	acked     []uint32
	reqs      []request
	inflight  map[*byte]int // first byte of an op in flight -> index in reqs
	oldest    int           // index of the oldest request not yet committed
	backlog   []int64       // open loop: due times waiting for room in the window
	closed    bool          // closed loop: onCommit issues the next request
	violation string        // first reply the oracle rejected
}

func newClient(id smr.NodeID, w *workload, seed int64, nt *nodeTrace) *client {
	c := &client{
		w:        w,
		rng:      rand.New(rand.NewSource(seed<<16 ^ int64(id))),
		keys:     make([]string, keysPerClient),
		value:    make([]byte, w.valueBytes),
		issued:   make([]uint32, keysPerClient),
		acked:    make([]uint32, keysPerClient),
		reqs:     make([]request, 0, 1<<16),
		inflight: make(map[*byte]int, 2*w.window),
	}
	c.id = id
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf("c%d/k%04d", id, i)
	}
	for _, k := range c.rng.Perm(keysPerClient) {
		c.order = append(c.order, int32(k))
	}
	c.rng.Read(c.value)
	if nt != nil {
		nt.sentAt = c.sentAt
	}
	return c
}

// next makes the client's next operation. The first pass over the keys
// writes each once; after that the seed decides get or put. mu is held.
func (c *client) next(due int64) []byte {
	n := len(c.reqs)
	key := c.order[n%keysPerClient]
	r := request{key: key, due: due, sent: now()}
	var op []byte
	if n >= keysPerClient && c.rng.Intn(100) < c.w.getShare {
		op = kv.GetOp(c.keys[key])
	} else {
		c.issued[key]++
		r.version = c.issued[key]
		binary.LittleEndian.PutUint32(c.value[0:], uint32(key))
		binary.LittleEndian.PutUint32(c.value[4:], r.version)
		op = kv.PutOp(c.keys[key], c.value)
	}
	c.reqs = append(c.reqs, r)
	c.inflight[&op[0]] = n
	return op
}

// onCommit is the xpaxos.Client's commit callback; it runs on the
// client node's event loop, so it may Invoke directly.
func (c *client) onCommit(op, rep []byte, _ time.Duration) {
	c.mu.Lock()
	i, ok := c.inflight[&op[0]]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.inflight, &op[0])
	r := &c.reqs[i]
	r.done = now()
	if msg := c.checkReply(r, rep); msg != "" && c.violation == "" {
		c.violation = fmt.Sprintf("client %d key %s: %s", c.id, c.keys[r.key], msg)
	}
	ops := c.fill()
	c.mu.Unlock()
	for _, op := range ops {
		c.cl.Invoke(op)
	}
}

// fill makes as many requests as the window allows: one per free slot
// in a closed loop, one per backlogged due time in an open loop. mu is
// held; the caller hands the ops to the client node after releasing it.
//
// The window is a span of timestamps, not a count: request n+window
// waits until request n has committed. With in-order commits the two
// are the same thing. They differ when one request is stuck while
// later ones commit — after a primary crash — and then a counting
// window lets the client's timestamps run more than 64 ahead of the
// stuck request, which the replicas' per-client dedupe window then
// treats as already executed and never answers (see README, "seed
// observations").
func (c *client) fill() (ops [][]byte) {
	c.advance()
	for len(c.reqs)-c.oldest < c.w.window {
		switch {
		case c.closed:
			ops = append(ops, c.next(now()))
		case len(c.backlog) > 0:
			ops = append(ops, c.next(c.backlog[0]))
			c.backlog = c.backlog[1:]
		default:
			return ops
		}
	}
	return ops
}

// checkReply is the per-reply oracle: a put is acknowledged with
// StatusOK, a get returns the value this client last had acknowledged
// for the key. Only a put that failed (never acknowledged) widens what
// a later get may return.
func (c *client) checkReply(r *request, rep []byte) string {
	if len(rep) == 0 {
		return "empty reply"
	}
	if r.version != 0 {
		if len(rep) != 1 || rep[0] != kv.StatusOK {
			return fmt.Sprintf("put answered with status %d, %d bytes", rep[0], len(rep))
		}
		if r.version > c.acked[r.key] {
			c.acked[r.key] = r.version
		}
		return ""
	}
	return c.checkValue(r.key, rep[0] == kv.StatusOK, rep[1:])
}

// checkValue judges a value read for key, from a reply or from a
// stopped replica's store.
func (c *client) checkValue(key int32, found bool, v []byte) string {
	acked, issued := c.acked[key], c.issued[key]
	if !found {
		if acked != 0 {
			return fmt.Sprintf("not found, but version %d was acknowledged", acked)
		}
		return ""
	}
	if len(v) != len(c.value) || !bytes.Equal(v[valueHeader:], c.value[valueHeader:]) {
		return fmt.Sprintf("value of %d bytes is not what this client wrote", len(v))
	}
	k, ver := binary.LittleEndian.Uint32(v[0:]), binary.LittleEndian.Uint32(v[4:])
	if k != uint32(key) || ver < acked || ver > issued {
		return fmt.Sprintf("holds version %d of key %d; acknowledged %d, issued %d", ver, k, acked, issued)
	}
	return ""
}

// issueOne submits one request from outside the event loop.
func (c *client) issueOne() {
	c.mu.Lock()
	op := c.next(now())
	c.mu.Unlock()
	c.node.Submit(smr.Invoke{Op: op})
}

// startClosed opens the closed loop: a window of requests now, and
// refills from every commit until quiesce.
func (c *client) startClosed() {
	c.mu.Lock()
	c.closed = true
	ops := c.fill()
	c.mu.Unlock()
	for _, op := range ops {
		c.node.Submit(smr.Invoke{Op: op})
	}
}

// offer is the open loop's issue path: the request due at due goes out
// now if the window has room, and otherwise waits in the backlog for a
// commit to make room (xpaxos.Client.Invoke panics past its window).
func (c *client) offer(due int64) {
	c.mu.Lock()
	c.backlog = append(c.backlog, due)
	ops := c.fill()
	c.mu.Unlock()
	for _, op := range ops {
		c.node.Submit(smr.Invoke{Op: op})
	}
}

// quiesce stops new requests; what is in flight may still commit.
// Backlogged requests were attempted and will never be issued, so they
// are recorded as they stand: due, never done.
func (c *client) quiesce() {
	c.mu.Lock()
	c.closed = false
	for _, due := range c.backlog {
		c.reqs = append(c.reqs, request{due: due})
	}
	c.backlog = nil
	c.mu.Unlock()
}

// advance moves oldest past the requests that have committed. mu is held.
func (c *client) advance() {
	for c.oldest < len(c.reqs) && c.reqs[c.oldest].done != 0 {
		c.oldest++
	}
}

// pending reports the requests in flight or backlogged, and the due
// time of the oldest. Requests are issued in due order, so the oldest
// is the first one not yet committed.
func (c *client) pending() (n int, oldest int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance()
	switch {
	case c.oldest < len(c.reqs):
		oldest = c.reqs[c.oldest].due
	case len(c.backlog) > 0:
		oldest = c.backlog[0]
	}
	return len(c.inflight) + len(c.backlog), oldest
}

// waitIdle waits until nothing is pending, for at most d.
func (c *client) waitIdle(d time.Duration) bool {
	for end := time.Now().Add(d); ; {
		if n, _ := c.pending(); n == 0 {
			return true
		}
		if time.Now().After(end) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// sentAt tells the node wrapper when an op was handed to the node.
func (c *client) sentAt(op []byte) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.inflight[&op[0]]; ok {
		return c.reqs[i].sent
	}
	return 0
}

// drain waits until every client's pending requests have committed or
// are past their deadline. The wait is bounded by the deadline itself,
// so requests that never commit end the run as failures, not as a hang.
func drain(clients []*client) {
	for {
		busy := false
		for _, c := range clients {
			if n, oldest := c.pending(); n > 0 && now()-oldest < int64(deadline) {
				busy = true
			}
		}
		if !busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// checkFinalState is the end-of-run oracle, run after every node has
// stopped: at least t+1 replicas agree on (executed sn, SHA-256 of the
// snapshot), and that state holds every put a client had acknowledged.
// After a crash this is the "no acknowledged write lost" check over
// the survivors.
func (c *cluster) checkFinalState() string {
	type state struct {
		sn   smr.SeqNum
		hash [32]byte
	}
	agree := map[state][]*replica{}
	var best []*replica
	for _, r := range c.replicas {
		s := state{r.rep.Executed(), sha256.Sum256(r.store.Snapshot())}
		agree[s] = append(agree[s], r)
		if len(agree[s]) > len(best) {
			best = agree[s]
		}
	}
	if len(best) < c.w.t+1 {
		var sns []smr.SeqNum
		for _, r := range c.replicas {
			sns = append(sns, r.rep.Executed())
		}
		return fmt.Sprintf("only %d of %d replicas agree on the final state, need %d (executed: %v)",
			len(best), len(c.replicas), c.w.t+1, sns)
	}
	store := best[0].store
	for _, cl := range c.clients {
		if cl.violation != "" {
			return cl.violation
		}
		for k := range cl.keys {
			v, found := store.Get(cl.keys[k])
			if msg := cl.checkValue(int32(k), found, v); msg != "" {
				return fmt.Sprintf("replica %d, key %s: %s", best[0].id, cl.keys[k], msg)
			}
		}
	}
	return ""
}
