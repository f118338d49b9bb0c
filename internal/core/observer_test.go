package core

import (
	"testing"

	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// TestOnRoundEndReportsGauges drives one process and reads, at each round's
// end, the buffer gauges its accessors report: history growing as messages
// are processed, pending reflecting the outbox, nothing waiting.
func TestOnRoundEndReportsGauges(t *testing.T) {
	cfg := Config{N: 2, K: 2, R: 5, SelfExclusion: true}
	tp := &capture{}
	p, err := NewProcess(0, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit([]byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit([]byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	type gauges struct{ history, waiting, pending int }
	sample := func() gauges { return gauges{p.HistoryLen(), p.WaitingLen(), p.PendingSubmissions()} }
	p.StartRound(0) // broadcasts+processes "a"; "b" still pending
	if g := sample(); g != (gauges{1, 0, 1}) {
		t.Errorf("after round 0: %+v", g)
	}
	p.StartRound(1)
	p.StartRound(2) // broadcasts+processes "b"
	if g := sample(); g != (gauges{2, 0, 0}) {
		t.Errorf("after round 2: %+v", g)
	}
}

// TestOnCrashDeclaredAtCoordinator has the coordinator declare a silent
// member crashed and checks Stats counts the declaration exactly once.
func TestOnCrashDeclaredAtCoordinator(t *testing.T) {
	cfg := Config{N: 2, K: 1, R: 3, SelfExclusion: true}
	tp := &capture{}
	p, err := NewProcess(0, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	p.StartRound(0) // p1 stays silent
	p.StartRound(1) // K=1: attempts saturate, p1 declared crashed
	if got := p.Stats.CrashDeclarations; got != 1 || p.View().Alive(1) {
		t.Fatalf("declarations = %d, view %v: want p1 declared once", got, p.View())
	}
	p.StartRound(2)
	p.StartRound(3)
	if got := p.Stats.CrashDeclarations; got != 1 {
		t.Errorf("crash re-declared: %d declarations", got)
	}
}

// TestRecoverAndRetransmitPDUs checks both ends of a history recovery on
// the PDUs the transport records: the RECOVER a behind member sends, and the
// RETRANSMIT that answers it, with what each carries.
func TestRecoverAndRetransmitPDUs(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}

	// Requester side: a decision proves p0 is behind on p1's sequence.
	tp := &capture{}
	p, err := NewProcess(0, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	d := &wire.Decision{
		Subrun:       0,
		Coord:        1,
		MaxProcessed: mid.SeqVector{0, 2, 0},
		MostUpdated:  []mid.ProcID{mid.None, 1, mid.None},
		MinWaiting:   mid.NewSeqVector(3),
		CleanTo:      mid.NewSeqVector(3),
		Attempts:     make([]uint8, 3),
		Alive:        []bool{true, true, true},
		Covered:      []bool{true, true, true},
		FullGroup:    true,
	}
	p.Recv(1, d)
	var recovers []mid.ProcID
	for _, c := range tp.sends {
		if r, ok := c.pdu.(*wire.Recover); ok {
			if len(r.Wants) != 1 {
				t.Errorf("ranges = %d, want 1", len(r.Wants))
			}
			recovers = append(recovers, c.dst)
		}
	}
	if len(recovers) != 1 || recovers[0] != 1 {
		t.Fatalf("recovers = %v, want [1]", recovers)
	}

	// Responder side: p1 holds its own messages and answers a RECOVER.
	tp1 := &capture{}
	p1, err := NewProcess(1, cfg, tp1, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Submit([]byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	p1.StartRound(0) // broadcasts and stores (1,1) in history
	p1.Recv(0, &wire.Recover{Requester: 0, Wants: []wire.WantRange{{Proc: 1, From: 1, To: 1}}})
	var answered []int
	for _, c := range tp1.sends {
		if r, ok := c.pdu.(*wire.Retransmit); ok {
			if c.dst != 0 {
				t.Errorf("requester = %v, want 0", c.dst)
			}
			answered = append(answered, len(r.Msgs))
		}
	}
	if len(answered) != 1 || answered[0] != 1 {
		t.Fatalf("answered = %v, want [1]", answered)
	}
}
