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

// TestIdleSubrunAllocBudget states what the agreement clock costs when
// nothing is being sent: one subrun of a three-member group — three
// requests, one decision, applied three times — allocates nothing at all.
// Each member writes its Request into its one own record, the coordinator
// copies what it is lent into the slots of its request table and fills one of
// its three decision records, and every member copies the decision it is
// lent into a spare of its own; the clean vector handed to OnStable is the
// member's watermark itself. The parent of the borrow rule measured 13 (what
// was handed out was built fresh), its parent 30.
func TestIdleSubrunAllocBudget(t *testing.T) {
	const budget = 0
	procs := syncGroup(t, Config{N: 3, K: 3, R: 8, SelfExclusion: true})
	round := 0
	subrun := func() {
		for r := 0; r < 2; r++ {
			for _, p := range procs {
				p.StartRound(round)
			}
			round++
		}
	}
	for i := 0; i < 6; i++ {
		subrun() // every member has coordinated and holds a previous decision
	}
	if got := testing.AllocsPerRun(300, subrun); got > budget {
		t.Errorf("one idle subrun of the group allocates %.1f objects, budget %d", got, budget)
	}
	for _, p := range procs {
		if !p.Running() {
			t.Fatalf("member %d left during the idle run: %v", p.ID(), p.Stats)
		}
	}
}

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
