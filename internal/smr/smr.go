// Package smr defines the protocol-agnostic state-machine-replication
// framework shared by every protocol in this repository (XPaxos,
// Paxos, PBFT, Zyzzyva, Zab).
//
// Protocols are written as deterministic event-driven state machines:
// a Node receives events (messages, timer expirations) through Step
// and reacts by calling methods on its Env (send messages, set
// timers). The same protocol code then runs under two runtimes:
//
//   - the discrete-event WAN simulator (internal/netsim), used for all
//     paper experiments and most tests, and
//   - transport.Node (internal/transport), where each node is a
//     goroutine with real timers on a TCP endpoint with mutual TLS,
//     used by the cmd/ tools and by the public xft.Cluster behind the
//     examples, which runs over loopback.
package smr

import (
	"strings"
	"time"
)

// NodeID identifies a node. Replica IDs are 0..n-1; client IDs start
// at ClientIDBase. One flat ID space keeps transports simple.
type NodeID int

// ClientIDBase is the first NodeID used for clients.
const ClientIDBase NodeID = 1000

// IsClient reports whether id belongs to the client range.
func (id NodeID) IsClient() bool { return id >= ClientIDBase }

// View numbers protocol configurations; all protocols here are
// orchestrated in a sequence of views.
type View uint64

// SeqNum is a sequence number assigned to a committed request.
type SeqNum uint64

// Message is implemented by every protocol message. WireSize returns
// the modeled size in bytes used for bandwidth accounting in the
// simulator; it should include payload, headers and authenticators.
type Message interface {
	// Type returns a short name for metrics and traces, e.g. "commit".
	Type() string
	// WireSize returns the modeled on-the-wire size in bytes.
	WireSize() int
}

// BulkMessage is optionally implemented by messages whose delivery may
// lag protocol-critical traffic. Transports with bounded send queues
// shed bulk messages (lazy replication, state transfer) before
// protocol-critical ones (view change, suspect, commit votes) and may
// let critical messages overtake queued bulk traffic. Messages that do
// not implement the interface — or return false — are critical.
type BulkMessage interface {
	Message
	// Bulk reports whether the message is background traffic.
	Bulk() bool
}

// IsBulk reports whether m is marked as bulk background traffic.
func IsBulk(m Message) bool {
	b, ok := m.(BulkMessage)
	return ok && b.Bulk()
}

// Event is delivered to a Node's Step method.
type Event interface{ isEvent() }

// Recv is the arrival of a message from another node.
type Recv struct {
	From NodeID
	Msg  Message
}

// TimerID identifies a timer set through Env.SetTimer.
type TimerID uint64

// TimerFired signals that a timer set via Env.SetTimer expired.
type TimerFired struct {
	ID   TimerID
	Kind string // the kind passed to SetTimer, for readability
}

// Start is delivered once before any other event.
type Start struct{}

// Invoke asks a client node to submit an operation. Runtimes deliver
// it on behalf of external callers (e.g. transport.Node.Submit, which
// is safe from any goroutine); under the simulator, benchmark drivers
// call the client's Invoke method directly from event context instead.
type Invoke struct{ Op []byte }

// Async is the completion of off-loop work started through Env.Defer.
// It re-enters the node through Step like any other event, so protocol
// state stays confined to the event loop: the work function ran
// elsewhere (or at another virtual time), and Apply publishes its
// results. Kind labels the work for debugging and runtime accounting.
type Async struct {
	Kind  string
	Apply func()
}

// PeerDown is the runtime's connection-health signal that a peer has
// stopped answering keepalive probes (or, in the simulator, that the
// modeled link to it is no longer delivering). It is delivered through
// the node's inbox like a timer, so protocols can react on the event
// loop — e.g. an XPaxos replica proactively suspects the view when an
// active-group member goes dark, instead of waiting for a retransmit
// timeout. The signal is local and advisory: it reflects this node's
// own channel to the peer, which a partial partition can sever while
// the peer is alive and well for everyone else.
type PeerDown struct {
	Peer NodeID
	// LastSeen is how long ago (at delivery) the peer last answered.
	LastSeen time.Duration
}

// PeerUp reports a peer answering probes again after a PeerDown (or
// confirming liveness for the first time). Like PeerDown it is
// advisory and local to this node's channel.
type PeerUp struct {
	Peer NodeID
	// RTT is the round-trip time of the probe that confirmed liveness
	// (zero when the runtime does not measure one).
	RTT time.Duration
}

func (Recv) isEvent()       {}
func (TimerFired) isEvent() {}
func (Start) isEvent()      {}
func (Invoke) isEvent()     {}
func (Async) isEvent()      {}
func (PeerDown) isEvent()   {}
func (PeerUp) isEvent()     {}

// Env is the interface a node uses to act on the world. Implementations
// are provided by the runtimes; protocol code must not assume anything
// beyond this contract.
type Env interface {
	// ID returns this node's ID.
	ID() NodeID
	// Now returns elapsed time since the run began (virtual under the
	// simulator, wall-clock under the live runtime).
	Now() time.Duration
	// Send transmits m to the given node. Delivery is asynchronous and,
	// under injected faults, may be delayed or dropped entirely.
	Send(to NodeID, m Message)
	// SetTimer arranges a TimerFired{id, kind} event after d. Kind is a
	// label for debugging; the returned id is unique per node.
	SetTimer(d time.Duration, kind string) TimerID
	// CancelTimer prevents a pending timer from firing. Cancelling an
	// already-fired or unknown timer is a no-op.
	CancelTimer(id TimerID)
	// Defer runs work off the event loop and then delivers
	// Async{Kind: kind, Apply: apply} back into Step. work must not
	// touch node state (it typically performs cryptography over data
	// captured at submission); apply runs on the event loop and
	// publishes the results. Completions are never dropped, but they
	// are asynchronous: other events — including a view change — may be
	// processed between Defer and the Async delivery, so apply must
	// re-validate any state it depends on. Runtimes without off-loop
	// execution (unit-test stubs) may run work and apply synchronously
	// before returning. Durable-storage jobs use kinds recognized by
	// IsDurableKind so resource-modeling runtimes charge them to the
	// disk rather than a crypto unit.
	Defer(kind string, work func(), apply func())
}

// DeferKindWAL is the Env.Defer kind used for write-ahead-log group
// commits: the work half appends records and fsyncs; the apply half
// releases the next batch.
const DeferKindWAL = "wal-commit"

// IsDurableKind reports whether a Defer kind names durable-storage
// work (disk write + fsync) rather than crypto. The simulator routes
// such jobs to a per-node disk unit charged at the modeled fsync cost,
// so durability overlaps crypto and networking in virtual time exactly
// as it does on the live runtime.
func IsDurableKind(kind string) bool { return strings.HasPrefix(kind, "wal") }

// Node is an event-driven protocol participant (replica or client).
type Node interface {
	// Init is called exactly once, before any Step, with the node's
	// environment.
	Init(env Env)
	// Step processes one event. Implementations must be deterministic
	// functions of their state and the event.
	Step(ev Event)
}

// Application is the replicated service. Execute must be
// deterministic: every replica applies the same operations in the same
// order and must produce identical results.
type Application interface {
	// Execute applies an operation and returns its reply.
	Execute(op []byte) []byte
	// Snapshot returns a serialized copy of the full state (used by
	// checkpointing and state transfer).
	Snapshot() []byte
	// Restore replaces the state with a snapshot produced by Snapshot.
	Restore(snap []byte) error
}

// Committed reports a request commitment to interested observers
// (tests, benchmarks, consistency checkers).
type Committed struct {
	Replica  NodeID
	View     View
	Seq      SeqNum
	Digest   [32]byte // digest of the request (crypto.Digest)
	Client   NodeID
	ClientTS uint64
	// First marks the first request of a committed entry's batch: one
	// notification burst per stored entry starts with First set. A
	// replica may legitimately re-notify the same sequence number (a
	// view change re-commits selected entries; catch-up re-stores
	// them), so observers reconstructing per-sn batch content must
	// treat First as "previous content at this sn is superseded".
	First bool
}

// CommitObserver receives commit notifications. Protocols invoke it
// synchronously from Step, so implementations must be fast and must
// not call back into the node.
type CommitObserver func(c Committed)
