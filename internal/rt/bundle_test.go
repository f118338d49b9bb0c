package rt

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// rawPeerMember builds member 0 of a two-member group hosting `groups` groups
// on one shard loop, with a raw UDP socket standing in for member 1. Its
// round clock never ticks in a test's lifetime, so everything the member
// sends is what the test made it send. The member is started unless
// started is false; either way it is stopped when the test ends.
func rawPeerMember(t *testing.T, groups int, started bool) (*Member, *obs.Registry, *capture.Ring, *net.UDPConn) {
	t.Helper()
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	reg := obs.New()
	ring := capture.New(capture.Options{Node: 0, N: 2, MaxFrames: 1 << 10})
	m, err := NewMember(Config{
		// K is high so the lone live member does not exclude its silent peer.
		Config:        core.Config{N: 2, K: 100, R: 256, SelfExclusion: true},
		Groups:        groups,
		Shards:        1,
		Peers:         []string{freePorts(t, 1)[0], peer.LocalAddr().String()},
		RoundDuration: time.Hour,
		Metrics:       reg,
		Captures:      []*capture.Ring{ring},
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	if started {
		m.Start()
	}
	return m, reg, ring, peer
}

// readDatagrams returns every datagram the raw peer receives until it has
// been quiet for the given time.
func readDatagrams(t *testing.T, conn *net.UDPConn, quiet time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	buf := make([]byte, MaxDatagram+1)
	for {
		conn.SetReadDeadline(time.Now().Add(quiet))
		n, err := conn.Read(buf)
		if err != nil {
			return out
		}
		out = append(out, bytes.Clone(buf[:n]))
	}
}

// holdLoop parks member m's shard loop inside an event until the returned
// release is called, so that what the test queues meanwhile runs in one loop
// turn. queued waits until the inbox holds n events.
func holdLoop(t *testing.T, m *Member) (queued func(n int), release func()) {
	t.Helper()
	entered, done := make(chan struct{}), make(chan struct{})
	go m.Snapshot(context.Background(), 0, func(*core.Process) { close(entered); <-done })
	<-entered
	queued = func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for len(m.shards[0].c) < n {
			if time.Now().After(deadline) {
				t.Fatalf("the inbox never held %d events", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return queued, func() { close(done) }
}

// TestUDPBundlePacksOneLoopTurn: the frames a shard loop ships to one peer in
// one loop turn reach it as one datagram, a bundle, in ship order; a frame
// shipped alone reaches it plain, byte for byte the frame a receiver from
// before bundles accepts; and the link counters count datagrams at the
// socket, not the frames inside them.
func TestUDPBundlePacksOneLoopTurn(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const groups = 4
	m, reg, _, peer := rawPeerMember(t, groups, true)
	sent := reg.Counter("topics_send_datagrams_total")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	lone := &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 0, Seq: 99}, Payload: []byte("lone")}}
	if err := m.Snapshot(ctx, 2, func(*core.Process) { m.sessions[2].ship(lone, 1) }); err != nil {
		t.Fatal(err)
	}
	got := readDatagrams(t, peer, 100*time.Millisecond)
	if len(got) != 1 || wire.IsBundle(got[0]) {
		t.Fatalf("a lone frame arrived as %d datagrams (bundle: %v), want one plain frame", len(got), len(got) == 1 && wire.IsBundle(got[0]))
	}
	if group, src, body, err := wire.ParseEnvelope(got[0]); err != nil || group != 2 || src != 0 || !bytes.Contains(body, []byte("lone")) {
		t.Fatalf("lone frame: group %d from %d (err %v), want group 2 from 0", group, src, err)
	}
	if n := sent.Value(); n != 1 {
		t.Fatalf("topics_send_datagrams_total = %d after one lone frame, want 1", n)
	}

	queued, release := holdLoop(t, m)
	errs := make(chan error, groups)
	for g := range groups {
		go func() {
			_, err := m.Send(ctx, uint32(g), []byte(fmt.Sprintf("turn-%d", g)), nil)
			errs <- err
		}()
		queued(g + 1) // one Send queued at a time: the turn runs them in group order
	}
	release()
	for range groups {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got = readDatagrams(t, peer, 100*time.Millisecond)
	if len(got) != 1 || !wire.IsBundle(got[0]) {
		t.Fatalf("Sends on %d groups in one loop turn reached the peer as %d datagrams, want one bundle", groups, len(got))
	}
	next := 0
	for rest := got[0][wire.BundleHeaderSize:]; len(rest) > 0; {
		frame, tail, err := wire.NextBundled(rest)
		if err != nil {
			t.Fatalf("the member sent a malformed bundle: %v", err)
		}
		if group, _, body, err := wire.ParseEnvelope(frame); err == nil && bytes.Contains(body, []byte(fmt.Sprintf("turn-%d", next))) {
			if int(group) != next {
				t.Fatalf("payload turn-%d framed for group %d", next, group)
			}
			next++
		}
		rest = tail
	}
	if next != groups {
		t.Fatalf("the bundle carried the Sends of groups [0,%d) in order, want all %d", next, groups)
	}
	if n := sent.Value(); n != 2 {
		t.Fatalf("topics_send_datagrams_total = %d after a lone frame and one bundle, want 2", n)
	}
}

// TestUDPBundleDeliversEveryFrameInOrder: a bundle from a peer is split and
// each frame runs through the validator on its own, in bundle order, while
// the receive counter counts the one datagram.
func TestUDPBundleDeliversEveryFrameInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const groups = 4
	m, reg, ring, peer := rawPeerMember(t, groups, true)
	order := []uint32{3, 1, 0, 2}
	pkt := wire.AppendBundleHeader(nil)
	for _, g := range order {
		frame, err := wire.MarshalAppend(wire.AppendEnvelope(nil, g, 1), &wire.Data{Msg: causal.Message{
			ID: mid.MID{Proc: 1, Seq: 1}, Payload: []byte(fmt.Sprintf("from-1-in-%d", g)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		pkt = append(wire.AppendBundled(pkt, frame), frame...)
	}
	if _, err := peer.WriteToUDP(pkt, m.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for g := range uint32(groups) {
		ind, _ := m.Indications(g)
		select {
		case i := <-ind:
			if want := fmt.Sprintf("from-1-in-%d", g); string(i.Msg.Payload) != want {
				t.Fatalf("group %d indicated %q, want %q", g, i.Msg.Payload, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("group %d never indicated its frame of the bundle", g)
		}
	}
	var delivered []uint32
	for _, r := range ring.Snapshot().Records {
		if r.Dir == capture.DirIngress && r.Verdict == capture.Delivered {
			delivered = append(delivered, r.Group)
		}
	}
	if fmt.Sprint(delivered) != fmt.Sprint(order) {
		t.Fatalf("frames delivered for groups %v, want the bundle's order %v", delivered, order)
	}
	if n := reg.Counter("topics_recv_datagrams_total").Value(); n != 1 {
		t.Fatalf("topics_recv_datagrams_total = %d for one bundle of %d frames, want 1", n, len(order))
	}
}

// TestUDPPendingFramesDieWithTheMember: a member fail-stopped inside the loop
// turn in which it shipped sends none of those frames — the flush re-checks
// Killed, as ship does — and Stop releases every frame still pending.
func TestUDPPendingFramesDieWithTheMember(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const groups = 4
	t.Run("kill", func(t *testing.T) {
		m, _, _, peer := rawPeerMember(t, groups, true)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		queued, release := holdLoop(t, m)
		for g := range groups {
			go m.Send(ctx, uint32(g), []byte(fmt.Sprintf("doomed-%d", g)), nil)
		}
		queued(groups)
		killed := make(chan error, 1)
		go func() { killed <- m.Snapshot(ctx, 0, func(*core.Process) { m.Kill() }) }()
		queued(groups + 1)
		release()
		if err := <-killed; err != nil {
			t.Fatal(err)
		}
		// The turn ended with the kill: the loop has flushed (or not) by the
		// time it runs the next event.
		if err := m.Snapshot(ctx, 0, func(*core.Process) {}); err != nil {
			t.Fatal(err)
		}
		for _, pkt := range readDatagrams(t, peer, 100*time.Millisecond) {
			if bytes.Contains(pkt, []byte("doomed-")) {
				t.Fatalf("a fail-stopped member sent a frame it had queued before the kill (%d bytes)", len(pkt))
			}
		}
		m.Stop()
		if o := &m.shards[0].out; len(o.peers) != 0 || len(o.frames[1]) != 0 {
			t.Fatalf("frames still pending after Stop: %d peers, %d frames", len(o.peers), len(o.frames[1]))
		}
	})
	t.Run("stop", func(t *testing.T) {
		m, _, _, peer := rawPeerMember(t, groups, false)
		// No loop runs: the test's goroutine is the shard's, and what it
		// ships stays pending until Stop.
		for g, s := range m.sessions {
			s.ship(&wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 0, Seq: 1}, Payload: []byte(fmt.Sprintf("pending-%d", g))}}, mid.None)
		}
		pending := append([]*sharedBuf(nil), m.shards[0].out.frames[1]...)
		if len(pending) != groups {
			t.Fatalf("%d frames pending for the peer, want %d", len(pending), groups)
		}
		m.Stop()
		for i, sh := range pending {
			if sh.buf != nil {
				t.Errorf("pending frame %d still held after Stop", i)
			}
		}
		if o := &m.shards[0].out; len(o.peers) != 0 || len(o.frames[1]) != 0 {
			t.Fatalf("frames still pending after Stop: %d peers, %d frames", len(o.peers), len(o.frames[1]))
		}
		if got := readDatagrams(t, peer, 50*time.Millisecond); len(got) != 0 {
			t.Fatalf("a stopped member sent %d datagrams", len(got))
		}
	})
}
