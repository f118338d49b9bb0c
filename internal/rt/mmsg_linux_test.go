//go:build linux && (amd64 || arm64)

package rt

import (
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// TestReceiveSetIsOffHeap: a burst receiver's slab is mapped outside the Go
// heap — building and releasing one allocates only its small header arrays —
// and release unmaps it.
func TestReceiveSetIsOffHeap(t *testing.T) {
	start := mappedSets.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := newReceiverBuffers(nil)
	if m == nil {
		t.Fatal("the receive set could not be mapped")
	}
	if got := mappedSets.Load(); got != start+1 {
		t.Fatalf("%d receive sets mapped after building one, want %d", got, start+1)
	}
	for _, b := range m.bufs { // every slot is writable end to end
		b[0], b[len(b)-1] = 1, 1
	}
	m.release()
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 16<<10 {
		t.Errorf("building and releasing a receiver allocated %d KiB on the heap; its %d KiB slab belongs off it",
			grown>>10, mmsgBurst*burstSlot>>10)
	}
	if got := mappedSets.Load(); got != start {
		t.Errorf("%d receive sets mapped after release, want %d", got, start)
	}
}

// TestEveryBurstSlotTakesAFullDatagram: each slot of the receive set holds a
// datagram of MaxDatagram bytes whole. Nine of them, queued before the member
// starts, fill the eight slots of its first recvmmsg and one of the next; none
// counts as oversize, and the member goes on to converge with its real peer.
func TestEveryBurstSlotTakesAFullDatagram(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const datagrams = mmsgBurst + 1
	bursts := make(chan int, 64) // datagrams per recvmmsg, in order
	prev := recvmmsgRaw
	t.Cleanup(func() { recvmmsgRaw = prev }) // after the members stop
	recvmmsgRaw = func(fd uintptr, hdrs *mmsghdr, n int) (uintptr, syscall.Errno) {
		r, errno := prev(fd, hdrs, n)
		if errno == 0 {
			select {
			case bursts <- int(r):
			default:
			}
		}
		return r, errno
	}

	reg := obs.New()
	cfg := UDPConfig{
		// K is high so member 0, started alone, does not exclude member 1.
		Config:        core.Config{N: 2, K: 100, R: 256, SelfExclusion: true},
		Peers:         freePorts(t, 2),
		RoundDuration: 3 * time.Millisecond,
		BatchWindow:   2 * time.Millisecond,
		Metrics:       reg,
		Logf:          func(string, ...any) {},
	}
	nodes := make([]*UDPNode, 2)
	for i := range nodes {
		cfg.Self = mid.ProcID(i)
		node, err := NewUDPNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(node.Stop)
		cfg.Metrics = nil // the counters below are member 0's alone
	}
	// Room for all nine in the socket before the reader takes any.
	if err := nodes[0].m.udp.conn.SetReadBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("udp", cfg.Peers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A frame for a group member 0 does not host, padded to the largest
	// datagram: the validator refuses it whole, as DropGroup.
	frame := wire.AppendEnvelope(nil, 7, 1)
	frame = append(frame, make([]byte, MaxDatagram-len(frame))...)
	for range datagrams {
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
	}

	nodes[0].Start()
	received := reg.Counter("topics_recv_datagrams_total")
	deadline := time.Now().Add(10 * time.Second)
	for received.Value() < datagrams {
		if time.Now().After(deadline) {
			t.Fatalf("member 0 received %d of %d datagrams", received.Value(), datagrams)
		}
		time.Sleep(time.Millisecond)
	}
	if first, second := <-bursts, <-bursts; first != mmsgBurst || second != 1 {
		t.Errorf("recvmmsg took %d then %d datagrams, want %d then 1", first, second, mmsgBurst)
	}
	if got, want := reg.Counter("topics_recv_bytes_total").Value(), int64(datagrams*MaxDatagram); got != want {
		t.Errorf("topics_recv_bytes_total = %d, want %d", got, want)
	}
	if n := reg.Counter("topics_drop_oversize_total").Value(); n != 0 {
		t.Errorf("topics_drop_oversize_total = %d: a slot truncated a full datagram", n)
	}
	if n := reg.Counter("topics_drop_group_total").Value(); n != datagrams {
		t.Errorf("topics_drop_group_total = %d, want every datagram refused whole (%d)", n, datagrams)
	}

	nodes[1].Start()
	sendEach(t, nodes, 4)
	awaitProcessed(t, nodes, mid.SeqVector{4, 4})
}
