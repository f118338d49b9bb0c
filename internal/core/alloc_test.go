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
// requests, one decision, applied three times — allocates what it hands
// out and nothing else. Per subrun that is, for the whole group: each
// member's Request with its one vector arena (2 x 3; the coordinator builds a
// second, fresh one to fold in, 2 more), the Decision with its one arena (2),
// and each member's clean vector for OnStable (3): 13. The request table,
// the silence counters and the heard mask are reused scratch. The parent of
// the change that introduced this test measured 30.
func TestIdleSubrunAllocBudget(t *testing.T) {
	const budget = 13
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
