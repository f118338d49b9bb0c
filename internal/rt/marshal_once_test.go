package rt

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// drainInboxes runs every queued event on the caller's goroutine. Only
// valid for clusters that were never Started (no loop goroutines racing).
func drainInboxes(c *Cluster) {
	for _, n := range c.nodes {
		in := n.m.shards[0].inbox
		for len(in.c) > 0 {
			in.run(<-in.c)
		}
	}
}

func broadcastPDU() wire.PDU {
	return &wire.Data{Msg: causal.Message{
		ID:      mid.MID{Proc: 0, Seq: 1},
		Payload: make([]byte, 64),
	}}
}

// TestMeshBroadcastMarshalsOnce asserts the tentpole property on the
// in-process mesh: one Broadcast = exactly one wire marshal, however many
// peers receive the bytes.
func TestMeshBroadcastMarshalsOnce(t *testing.T) {
	c, err := NewCluster(liveConfig(5)) // never Started: inboxes drain manually
	if err != nil {
		t.Fatal(err)
	}
	tr := c.nodes[0].m.sessions[0]
	before := wire.MarshalCalls()
	tr.Broadcast(broadcastPDU())
	if got := wire.MarshalCalls() - before; got != 1 {
		t.Fatalf("Broadcast to %d peers marshaled %d times, want exactly 1", c.N()-1, got)
	}
	// Every peer (and not the sender) holds exactly one datagram.
	for i, n := range c.nodes {
		want := 1
		if i == 0 {
			want = 0
		}
		if got := len(n.m.shards[0].c); got != want {
			t.Errorf("node %d inbox holds %d datagrams, want %d", i, got, want)
		}
	}
	// Decoding the fan-out must not marshal either.
	before = wire.MarshalCalls()
	drainInboxes(c)
	if got := wire.MarshalCalls() - before; got != 0 {
		t.Errorf("receive path marshaled %d times, want 0", got)
	}
}

// TestMeshSendMarshalsOnce pins the unicast path to one marshal too.
func TestMeshSendMarshalsOnce(t *testing.T) {
	c, err := NewCluster(liveConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := c.nodes[0].m.sessions[0]
	before := wire.MarshalCalls()
	tr.Send(1, broadcastPDU())
	if got := wire.MarshalCalls() - before; got != 1 {
		t.Fatalf("Send marshaled %d times, want exactly 1", got)
	}
	drainInboxes(c)
}

// TestMeshBroadcastAllocBudget guards the send side of the mesh fan-out.
// The budget covers the per-broadcast bookkeeping: the shared-buffer
// refcount, a fresh wire buffer while none cycle back through the pool, and
// one event record per peer — fresh here only because no loop is running to
// give records back (TestMallocsPerConfirmedMessage holds the recycling
// steady state). A re-marshal-per-peer regression costs
// several allocations per peer and blows well past it.
func TestMeshBroadcastAllocBudget(t *testing.T) {
	c, err := NewCluster(liveConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	tr := c.nodes[0].m.sessions[0]
	pdu := broadcastPDU()
	got := testing.AllocsPerRun(100, func() {
		tr.Broadcast(pdu)
	})
	drainInboxes(c)
	if got > 6 {
		t.Errorf("mesh Broadcast allocates %.1f/op, budget 6", got)
	}
}

// TestUDPBroadcastMarshalsOnce asserts the same property over the real
// socket transport: one Broadcast = one marshal = one framed buffer, fanned
// out to every peer with WriteToUDP.
func TestUDPBroadcastMarshalsOnce(t *testing.T) {
	addrs := freePorts(t, 3)
	n, err := NewUDPNode(UDPConfig{
		Config: core.Config{N: 3, K: 3, R: 8, SelfExclusion: true},
		Self:   0,
		Peers:  addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	tr := n.m.sessions[0]
	before := wire.MarshalCalls()
	tr.Broadcast(broadcastPDU())
	if got := wire.MarshalCalls() - before; got != 1 {
		t.Fatalf("UDP Broadcast to %d peers marshaled %d times, want exactly 1", n.m.cfg.N-1, got)
	}
	before = wire.MarshalCalls()
	tr.Send(1, broadcastPDU())
	if got := wire.MarshalCalls() - before; got != 1 {
		t.Fatalf("UDP Send marshaled %d times, want exactly 1", got)
	}
}
