package baseline

import (
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// MsgViewChange transfers a replica's log to a new view's primary.
type MsgViewChange struct {
	View    smr.View
	From    smr.NodeID
	Entries []Entry
	Sig     crypto.Signature
}

// Type implements smr.Message.
func (m *MsgViewChange) Type() string { return "view-change" }

// WireSize implements smr.Message.
func (m *MsgViewChange) WireSize() int {
	return MsgHeader + 16 + len(m.Sig) + EntriesWireSize(m.Entries)
}

// Bulk implements smr.BulkMessage: a view change carries the
// replica's whole accepted log (state transfer). A transport under
// queue pressure may shed one — the new primary needs only a quorum of
// them, and the progress timer re-drives the view change if it stalls.
func (m *MsgViewChange) Bulk() bool { return true }

// Code is the message's field list.
func (m *MsgViewChange) Code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.I64(c, &m.From)
	CodeEntries(c, &m.Entries)
	wire.Bytes(c, &m.Sig)
}

// SigPayload returns the bytes the sender signs, under d's tag.
func (m *MsgViewChange) SigPayload(d Domain) []byte {
	w := wire.New(64).Str(d.vc).U64(uint64(m.View)).I64(int64(m.From))
	for i := range m.Entries {
		e := &m.Entries[i]
		dg := d.Digest(&e.Batch)
		w.U64(uint64(e.SN)).U64(uint64(e.View)).Raw(dg[:])
	}
	return w.Done()
}

// MsgNewView installs the new view's log.
type MsgNewView struct {
	View    smr.View
	Entries []Entry
	Sig     crypto.Signature
}

// Type implements smr.Message.
func (m *MsgNewView) Type() string { return "new-view" }

// WireSize implements smr.Message.
func (m *MsgNewView) WireSize() int {
	return MsgHeader + 8 + len(m.Sig) + EntriesWireSize(m.Entries)
}

// Bulk implements smr.BulkMessage: the new-view installs the merged
// log (state transfer). If one is shed under queue pressure, the
// recipient's progress timer pushes it into the next view change and
// the transfer retries.
func (m *MsgNewView) Bulk() bool { return true }

// Code is the message's field list.
func (m *MsgNewView) Code(c *wire.Coder) {
	wire.U64(c, &m.View)
	CodeEntries(c, &m.Entries)
	wire.Bytes(c, &m.Sig)
}

// SigPayload returns the bytes the new primary signs, under d's tag.
func (m *MsgNewView) SigPayload(d Domain) []byte {
	w := wire.New(64).Str(d.nv).U64(uint64(m.View))
	for i := range m.Entries {
		e := &m.Entries[i]
		dg := d.Digest(&e.Batch)
		w.U64(uint64(e.SN)).Raw(dg[:])
	}
	return w.Done()
}

// LogTransfer is the crash-fault-grade view change PBFT and Zyzzyva
// run (the paper's evaluation exercises only the BFT baselines' common
// case): every replica signs its accepted log over to the new view's
// primary, which at Quorum of them merges the logs — per slot the
// highest view wins — and installs the result everywhere under its
// signature. The protocol says where its log is, in what order it
// reaches the group, and what installing means to it.
type LogTransfer struct {
	*Core
	// Quorum is how many view-change messages complete the change.
	Quorum int
	// Log is the protocol's log; it is read, never written.
	Log map[smr.SeqNum]*Entry
	// Announce sends this replica's view-change message to the group.
	Announce func(m *MsgViewChange)
	// Install adopts the new view's log: every entry is decided.
	Install func(entries []Entry)

	vcs map[smr.NodeID]*MsgViewChange
}

// Start moves this replica into the view change for view v.
func (t *LogTransfer) Start(v smr.View) {
	if v < t.View || (v == t.View && t.Electing) {
		return
	}
	t.View = v
	t.Electing = true
	t.vcs = make(map[smr.NodeID]*MsgViewChange)
	m := &MsgViewChange{View: v, From: t.ID, Entries: SortedEntries(t.Log)}
	m.Sig = t.Suite.Sign(crypto.NodeID(t.ID), m.SigPayload(t.domain))
	if t.IsLeader() {
		t.add(m)
		return
	}
	t.Announce(m)
	t.Rewatch()
}

// Recv handles the two view-change messages and reports whether msg
// was one of them.
func (t *LogTransfer) Recv(from smr.NodeID, msg smr.Message) bool {
	switch m := msg.(type) {
	case *MsgViewChange:
		if m.From != from || m.View < t.View || !t.Suite.Verify(crypto.NodeID(m.From), m.SigPayload(t.domain), m.Sig) {
			return true
		}
		if m.View > t.View || !t.Electing {
			t.Start(m.View)
		}
		if t.IsLeader() && m.View == t.View {
			t.add(m)
		}
	case *MsgNewView:
		if from != t.LeaderOf(m.View) || m.View < t.View || !t.Suite.Verify(crypto.NodeID(from), m.SigPayload(t.domain), m.Sig) {
			return true
		}
		t.View = m.View
		t.install(m.Entries)
	default:
		return false
	}
	return true
}

// add completes the view change at Quorum view-change messages: merge
// the transferred logs and install them everywhere.
func (t *LogTransfer) add(m *MsgViewChange) {
	t.vcs[m.From] = m
	if len(t.vcs) < t.Quorum {
		return
	}
	logs := make([][]Entry, 0, len(t.vcs))
	for _, vc := range t.vcs {
		logs = append(logs, vc.Entries)
	}
	nv := &MsgNewView{View: t.View, Entries: MergeEntries(t.View, logs)}
	nv.Sig = t.Suite.Sign(crypto.NodeID(t.ID), nv.SigPayload(t.domain))
	for _, id := range t.Others {
		t.Env.Send(id, nv)
	}
	t.install(nv.Entries)
}

func (t *LogTransfer) install(entries []Entry) {
	t.Electing = false
	t.Unwatch()
	t.vcs = nil
	t.Install(entries)
	t.Flush()
}
