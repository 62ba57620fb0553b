// Package faults provides reusable fault-injection wrappers for
// Byzantine testing of replication protocols.
//
// A non-crash-faulty machine is modeled in two composable ways:
//
//   - state corruption: protocol packages expose Inject* hooks that
//     mutate a replica's local state (data loss, forks) — see
//     xpaxos.Replica's fault-injection hooks;
//   - message-level misbehaviour: Wrap intercepts a node's outgoing
//     traffic through its Env, so tests can drop, redirect or
//     substitute messages (equivocation, muting, selective delivery)
//     without touching protocol internals.
//
// Crash faults and network faults (partitions) are injected by the
// network simulator itself (netsim.Crash, netsim.Partition).
package faults

import (
	"sort"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
)

// Send is one outgoing message.
type Send struct {
	To  smr.NodeID
	Msg smr.Message
}

// SendFilter rewrites an outgoing message into zero or more sends.
// Return nil to drop the message; return the original to pass it
// through.
type SendFilter func(to smr.NodeID, m smr.Message) []Send

// Wrap returns a node whose outgoing messages pass through filter.
func Wrap(inner smr.Node, filter SendFilter) smr.Node {
	return &wrapper{inner: inner, filter: filter}
}

type wrapper struct {
	inner  smr.Node
	filter SendFilter
}

// Init implements smr.Node.
func (w *wrapper) Init(env smr.Env) {
	w.inner.Init(&filterEnv{Env: env, filter: w.filter})
}

// Step implements smr.Node.
func (w *wrapper) Step(ev smr.Event) { w.inner.Step(ev) }

type filterEnv struct {
	smr.Env
	filter SendFilter
}

func (f *filterEnv) Send(to smr.NodeID, m smr.Message) {
	for _, s := range f.filter(to, m) {
		f.Env.Send(s.To, s.Msg)
	}
}

// PassThrough forwards a message unchanged.
func PassThrough(to smr.NodeID, m smr.Message) []Send {
	return []Send{{To: to, Msg: m}}
}

// Mute drops every outgoing message — the node still processes input
// (unlike a crash) but never speaks. Useful for modeling a replica
// that silently stopped participating.
func Mute() SendFilter {
	return func(smr.NodeID, smr.Message) []Send { return nil }
}

// DropTypes drops outgoing messages whose Type() is listed.
func DropTypes(types ...string) SendFilter {
	set := make(map[string]bool, len(types))
	for _, t := range types {
		set[t] = true
	}
	return func(to smr.NodeID, m smr.Message) []Send {
		if set[m.Type()] {
			return nil
		}
		return PassThrough(to, m)
	}
}

// DropTo drops outgoing messages addressed to the given nodes.
func DropTo(ids ...smr.NodeID) SendFilter {
	set := make(map[smr.NodeID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(to smr.NodeID, m smr.Message) []Send {
		if set[to] {
			return nil
		}
		return PassThrough(to, m)
	}
}

// DropNth drops every nth outgoing message (1-based: n=3 drops the
// 3rd, 6th, ...). Deterministic flaky-channel behavior without any
// randomness of its own, so schedules composed from it replay
// bit-for-bit. n <= 1 drops everything (equivalent to Mute).
func DropNth(n int) SendFilter {
	count := 0
	return func(to smr.NodeID, m smr.Message) []Send {
		count++
		if n <= 1 || count%n == 0 {
			return nil
		}
		return PassThrough(to, m)
	}
}

// ---------------------------------------------------------------------------
// Schedule composition
// ---------------------------------------------------------------------------

// Action is one scheduled fault event: at virtual time At, run Do.
// Name labels the action for traces ("crash 3", "heal partition").
type Action struct {
	At   time.Duration
	Name string
	Do   func()
}

// Timeline is an ordered fault schedule assembled from independently
// generated storms (crash waves, partition sweeps, byzantine windows).
// Actions keep their insertion order at equal times, so adding
// generators in a fixed order yields a deterministic composite
// schedule from a single PRNG seed.
type Timeline struct {
	actions []Action
}

// Add appends one action to the timeline.
func (tl *Timeline) Add(at time.Duration, name string, do func()) {
	tl.actions = append(tl.actions, Action{At: at, Name: name, Do: do})
}

// Len returns the number of actions.
func (tl *Timeline) Len() int { return len(tl.actions) }

// Sorted returns the actions ordered by (time, insertion order).
func (tl *Timeline) Sorted() []Action {
	out := append([]Action(nil), tl.actions...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Install schedules every action through at (typically
// netsim.Network.At), in sorted order. observe, if non-nil, is called
// with each action as it fires — campaign engines use it to record the
// executed fault timeline in the run trace.
func (tl *Timeline) Install(at func(time.Duration, func()), observe func(Action)) {
	for _, a := range tl.Sorted() {
		a := a
		at(a.At, func() {
			if observe != nil {
				observe(a)
			}
			a.Do()
		})
	}
}
