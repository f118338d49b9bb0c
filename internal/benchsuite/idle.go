package benchsuite

import (
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// idleNet is an in-process group on the runtimes' wire path without their
// goroutines: Send and Broadcast marshal the PDU they are lent into one
// reused arena, and after a round's ticks every frame is decoded — control
// records through a free list, as the live readers do — delivered, and the
// record handed back.
type idleNet struct {
	procs []*core.Process
	arena []byte
	queue []idleFrame
	free  *wire.FreeList
}

type idleFrame struct {
	src, dst   mid.ProcID
	start, end int
}

type idleTransport struct {
	net  *idleNet
	self mid.ProcID
}

func (t idleTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	if start, end, ok := t.net.encode(pdu); ok {
		t.net.queue = append(t.net.queue, idleFrame{t.self, dst, start, end})
	}
}

func (t idleTransport) Broadcast(pdu wire.PDU) {
	start, end, ok := t.net.encode(pdu)
	if !ok {
		return
	}
	for dst := range t.net.procs {
		if mid.ProcID(dst) != t.self {
			t.net.queue = append(t.net.queue, idleFrame{t.self, mid.ProcID(dst), start, end})
		}
	}
}

func (n *idleNet) encode(pdu wire.PDU) (start, end int, ok bool) {
	buf, err := wire.MarshalAppend(n.arena, pdu)
	if err != nil {
		return 0, 0, false
	}
	start, n.arena = len(n.arena), buf
	return start, len(buf), true
}

// subrun runs the two rounds of subrun s, delivering after each.
func (n *idleNet) subrun(b *testing.B, s int) {
	for r := 2 * s; r < 2*s+2; r++ {
		for _, p := range n.procs {
			p.StartRound(r)
		}
		for i := 0; i < len(n.queue); i++ {
			f := n.queue[i]
			pdu, err := n.free.Unmarshal(n.arena[f.start:f.end])
			if err != nil {
				b.Fatal(err)
			}
			n.procs[f.dst].Recv(f.src, pdu)
			n.free.Put(pdu)
		}
		n.queue, n.arena = n.queue[:0], n.arena[:0]
	}
}

// benchIdleSubrun measures what the agreement clock costs when nobody sends:
// one op is one subrun of an idle group of n — n requests built, n-1 sent,
// one decision computed and broadcast, every PDU through the codec, the
// decision applied n times. The paper's control cost is per subrun (Table 1),
// and it is what a faster clock multiplies, so its allocs/op is held at the
// recorded count exactly (0: see DESIGN.md §7 rule 5).
func benchIdleSubrun(b *testing.B, n int) {
	net := &idleNet{free: wire.NewFreeList()}
	for i := 0; i < n; i++ {
		p, err := core.NewProcess(mid.ProcID(i), core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
			idleTransport{net, mid.ProcID(i)}, core.Callbacks{})
		if err != nil {
			b.Fatal(err)
		}
		net.procs = append(net.procs, p)
	}
	warm := 2 * n // every member has coordinated; arena, queue and free list have their size
	for s := 0; s < warm; s++ {
		net.subrun(b, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.subrun(b, warm+i)
	}
	b.StopTimer()
	for _, p := range net.procs {
		if !p.Running() {
			b.Fatalf("member %d left the idle group", p.ID())
		}
	}
}

// IdleSubrunN3 is one idle subrun of a group of three.
func IdleSubrunN3(b *testing.B) { benchIdleSubrun(b, 3) }

// IdleSubrunN9 is one idle subrun of a group of nine.
func IdleSubrunN9(b *testing.B) { benchIdleSubrun(b, 9) }
