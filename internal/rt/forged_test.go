package rt

import (
	"context"
	"net"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// forgedData is the datagram that used to kill a member: DATA that decodes
// cleanly and passes the structural checks, with a dependency on process -2.
// The causal check indexed the processed vector with it.
func forgedData() *wire.Data {
	return &wire.Data{Msg: causal.Message{
		ID:      mid.MID{Proc: 1, Seq: 1},
		Deps:    mid.DepList{{Proc: -2, Seq: 1}},
		Payload: []byte("forged"),
	}}
}

// awaitMalformed polls a member's Status until it has counted want dropped
// PDUs — which also proves its loop goroutine survived them.
func awaitMalformed(t *testing.T, status func(context.Context) (Status, error), want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		st, err := status(ctx)
		cancel()
		if err != nil {
			t.Fatalf("the member no longer answers Status: %v", err)
		}
		if st.Stats.Malformed == want && st.Stats.ProcessedN == 0 && st.WaitingLen == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Stats.Malformed = %d (processed %d, waiting %d), want %d dropped and nothing kept",
				st.Stats.Malformed, st.Stats.ProcessedN, st.WaitingLen, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMeshForgedProcIDDropped: through the in-process mesh's wire path.
func TestMeshForgedProcIDDropped(t *testing.T) {
	c := startCluster(t, liveConfig(3))
	c.nodes[1].m.sessions[0].Send(0, forgedData())
	awaitMalformed(t, c.Node(0).Status, 1)
}

// TestUDPForgedProcIDDropped: datagrams from anyone who can reach the socket.
// The first claims to come from member 1 and names process -2. The other two
// impersonate the receiver itself — its next own message, once relayed by
// "member 1" and once under its own source id — and must be refused too: a
// member that processed its own sequence off the wire would collide with the
// number its next broadcast takes, which used to panic.
func TestUDPForgedProcIDDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	node, err := NewUDPNode(UDPConfig{
		Config:        core.Config{N: 3, K: 3, R: 8},
		Self:          0,
		Peers:         []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:2"}, // peers never started
		RoundDuration: 5 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Stop()
	conn, err := net.Dial("udp", node.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.MarshalAppend(wire.AppendEnvelope(nil, 0, 1), forgedData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	awaitMalformed(t, node.Status, 1)

	own := &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 0, Seq: 1}, Payload: []byte("not mine")}}
	for _, src := range []mid.ProcID{1, 0} {
		frame, err := wire.MarshalAppend(wire.AppendEnvelope(nil, 0, src), own)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	awaitMalformed(t, node.Status, 2) // the relayed copy; the one "from ourselves" stops at the socket
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if id, err := node.Send(ctx, []byte("mine"), nil); err != nil || id != (mid.MID{Proc: 0, Seq: 1}) {
		t.Fatalf("own first message after the impersonation: %v, %v", id, err)
	}
}
