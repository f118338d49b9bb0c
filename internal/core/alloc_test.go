package core

import (
	"testing"

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
