package core

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// syncMesh delivers every PDU at once, by a direct Recv on the destination:
// a transport that allocates nothing, so what an AllocsPerRun over it counts
// is the protocol's own.
type syncMesh struct {
	self  mid.ProcID
	procs []*Process
}

func (t *syncMesh) Send(dst mid.ProcID, pdu wire.PDU) { t.procs[dst].Recv(t.self, pdu) }

func (t *syncMesh) Broadcast(pdu wire.PDU) {
	for i, p := range t.procs {
		if mid.ProcID(i) != t.self {
			p.Recv(t.self, pdu)
		}
	}
}

func syncGroup(t *testing.T, cfg Config) []*Process {
	t.Helper()
	procs := make([]*Process, cfg.N)
	for i := range procs {
		p, err := NewProcess(mid.ProcID(i), cfg, &syncMesh{self: mid.ProcID(i), procs: procs}, Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	return procs
}

// idleNet is an in-process group on the runtimes' wire path without their
// goroutines: Send and Broadcast marshal the PDU they are lent into one
// reused arena, and after each round's ticks every frame is decoded — control
// records through a free list, as the live readers do — delivered, and the
// record handed back.
type idleNet struct {
	procs []*Process
	round int
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

func newIdleNet(tb testing.TB, cfg Config) *idleNet {
	tb.Helper()
	net := &idleNet{free: wire.NewFreeList()}
	for i := 0; i < cfg.N; i++ {
		p, err := NewProcess(mid.ProcID(i), cfg, idleTransport{net, mid.ProcID(i)}, Callbacks{})
		if err != nil {
			tb.Fatal(err)
		}
		net.procs = append(net.procs, p)
	}
	return net
}

// subrun runs the group's next subrun: two rounds, delivering after each.
func (n *idleNet) subrun(tb testing.TB) {
	for end := n.round + 2; n.round < end; n.round++ {
		for _, p := range n.procs {
			p.StartRound(n.round)
		}
		for i := 0; i < len(n.queue); i++ {
			f := n.queue[i]
			pdu, err := n.free.Unmarshal(n.arena[f.start:f.end])
			if err != nil {
				tb.Fatal(err)
			}
			n.procs[f.dst].Recv(f.src, pdu)
			n.free.Put(pdu)
		}
		n.queue, n.arena = n.queue[:0], n.arena[:0]
	}
}

func idleConfig(n int) Config { return Config{N: n, K: 3, R: 8, SelfExclusion: true} }

// TestIdleSubrunAllocBudget states what the agreement clock costs when
// nothing is being sent: one subrun of an idle group — n requests, one
// decision, applied n times — allocates nothing at all. Each member writes
// its Request into its one own record, the coordinator copies what it is
// lent into the slots of its request table and fills one of its three
// decision records, and every member copies the decision it is lent into a
// spare of its own; the clean vector handed to OnStable is the member's
// watermark itself. The parent of the borrow rule measured 13 (what was
// handed out was built fresh), its parent 30. The syncMesh row counts the
// protocol alone; the codec rows put every PDU through the wire path the
// runtimes run (MarshalAppend out, a FreeList in), at three and nine members.
func TestIdleSubrunAllocBudget(t *testing.T) {
	const budget = 0
	lockstep := func(t *testing.T, n int) ([]*Process, func()) {
		procs, round := syncGroup(t, idleConfig(n)), 0
		return procs, func() {
			for end := round + 2; round < end; round++ {
				for _, p := range procs {
					p.StartRound(round)
				}
			}
		}
	}
	codec := func(t *testing.T, n int) ([]*Process, func()) {
		net := newIdleNet(t, idleConfig(n))
		return net.procs, func() { net.subrun(t) }
	}
	for _, c := range []struct {
		name  string
		group func(t *testing.T, n int) ([]*Process, func())
		n     int
	}{
		{"syncMesh/N3", lockstep, 3},
		{"codec/N3", codec, 3},
		{"codec/N9", codec, 9},
	} {
		t.Run(c.name, func(t *testing.T) {
			procs, subrun := c.group(t, c.n)
			for i := 0; i < 2*c.n; i++ {
				subrun() // every member has coordinated and holds a previous decision
			}
			if got := testing.AllocsPerRun(300, subrun); got > budget {
				t.Errorf("one idle subrun of the group allocates %.2f objects, budget %d", got, budget)
			}
			for _, p := range procs {
				if !p.Running() {
					t.Fatalf("member %d left during the idle run: %v", p.ID(), p.Stats)
				}
			}
		})
	}
}

// benchIdleSubrun measures one subrun of an idle group of n on the codec
// path: the control cost the paper counts per subrun (Table 1), and what a
// faster clock multiplies.
func benchIdleSubrun(b *testing.B, n int) {
	net := newIdleNet(b, idleConfig(n))
	for s := 0; s < 2*n; s++ {
		net.subrun(b) // every member has coordinated; arena, queue and free list have their size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.subrun(b)
	}
	b.StopTimer()
	for _, p := range net.procs {
		if !p.Running() {
			b.Fatalf("member %d left the idle group", p.ID())
		}
	}
}

// BenchmarkIdleSubrunN3 is one idle subrun of a group of three.
func BenchmarkIdleSubrunN3(b *testing.B) { benchIdleSubrun(b, 3) }

// BenchmarkIdleSubrunN9 is one idle subrun of a group of nine.
func BenchmarkIdleSubrunN9(b *testing.B) { benchIdleSubrun(b, 9) }

// TestSubmitAllocBudget states what generating a message costs the process:
// a share of a chunk. The message record and its own label list — the sorted
// copy Submit keeps of the caller's, the one SubmitCausal builds from the
// processed vector — are carved from the process's arena, and the queue grows
// by doubling, so a stream of submissions allocates next to nothing per
// message. The parent of the arena measured 2 (Submit with labels: record and
// list) and 2 (SubmitCausal).
func TestSubmitAllocBudget(t *testing.T) {
	const stream, budget = 256, 0.1
	procs := syncGroup(t, Config{N: 3, K: 3, R: 8, SelfExclusion: true})
	p, payload := procs[0], make([]byte, 64)
	// One message processed from each peer, so SubmitCausal has two labels.
	for _, q := range procs[1:] {
		p.Recv(q.ID(), &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: q.ID(), Seq: 1}}})
	}
	if got := p.Processed(); got[1] != 1 || got[2] != 1 {
		t.Fatalf("processed %v, want one message from each peer", got)
	}
	deps := mid.DepList{{Proc: 2, Seq: 1}, {Proc: 1, Seq: 1}}
	for _, c := range []struct {
		name   string
		submit func() (mid.MID, error)
	}{
		{"Submit", func() (mid.MID, error) { return p.Submit(payload, deps) }},
		{"SubmitCausal", func() (mid.MID, error) { return p.SubmitCausal(payload) }},
	} {
		got := testing.AllocsPerRun(4, func() {
			for i := 0; i < stream; i++ {
				if _, err := c.submit(); err != nil {
					t.Fatal(err)
				}
			}
		}) / stream
		t.Logf("%s: %.3f objects per message", c.name, got)
		if got > budget {
			t.Errorf("%s allocates %.3f objects per message, budget %.1f", c.name, got, budget)
		}
	}
}
