package core

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// capture is a transport that records everything a process sends.
type capture struct {
	sends  []captured
	bcasts []wire.PDU
}

type captured struct {
	dst mid.ProcID
	pdu wire.PDU
}

func (c *capture) Send(dst mid.ProcID, pdu wire.PDU) {
	c.sends = append(c.sends, captured{dst, wire.Clone(pdu)})
}
func (c *capture) Broadcast(pdu wire.PDU) { c.bcasts = append(c.bcasts, wire.Clone(pdu)) }

func (c *capture) lastDecision(t *testing.T) *wire.Decision {
	t.Helper()
	for i := len(c.bcasts) - 1; i >= 0; i-- {
		if d, ok := c.bcasts[i].(*wire.Decision); ok {
			return d
		}
	}
	t.Fatal("no decision broadcast")
	return nil
}

func newProc(t *testing.T, id mid.ProcID, cfg Config) (*Process, *capture) {
	t.Helper()
	tp := &capture{}
	p, err := NewProcess(id, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	return p, tp
}

func req(sender mid.ProcID, subrun int64, last, waiting mid.SeqVector, prev *wire.Decision) *wire.Request {
	return &wire.Request{
		Sender: sender, Subrun: subrun,
		LastProcessed: last, Waiting: waiting, Prev: prev,
	}
}

func TestCoordinatorAggregatesRequests(t *testing.T) {
	cfg := Config{N: 4, K: 2, R: 5, SelfExclusion: true}
	p, tp := newProc(t, 0, cfg)

	// Subrun 0: p0 coordinates. Everyone reports.
	p.StartRound(0)
	p.Recv(1, req(1, 0, mid.SeqVector{3, 5, 0, 0}, mid.SeqVector{0, 0, 0, 0}, nil))
	p.Recv(2, req(2, 0, mid.SeqVector{2, 4, 7, 0}, mid.SeqVector{0, 0, 0, 2}, nil))
	p.Recv(3, req(3, 0, mid.SeqVector{4, 1, 0, 0}, mid.SeqVector{0, 6, 0, 0}, nil))
	p.StartRound(1)

	d := tp.lastDecision(t)
	if d.Subrun != 0 || d.Coord != 0 {
		t.Errorf("subrun/coord = %d/%d", d.Subrun, d.Coord)
	}
	// Max processed per sequence, with the reporting holder.
	if !d.MaxProcessed.Equal(mid.SeqVector{4, 5, 7, 0}) {
		t.Errorf("MaxProcessed = %v", d.MaxProcessed)
	}
	if d.MostUpdated[0] != 3 || d.MostUpdated[1] != 1 || d.MostUpdated[2] != 2 {
		t.Errorf("MostUpdated = %v", d.MostUpdated)
	}
	if d.MostUpdated[3] != mid.None {
		t.Errorf("MostUpdated[3] = %v, want None (nobody processed any)", d.MostUpdated[3])
	}
	// CleanTo = min over reports (p0's own report is all-zero).
	if !d.CleanTo.Equal(mid.SeqVector{0, 0, 0, 0}) {
		t.Errorf("CleanTo = %v", d.CleanTo)
	}
	// MinWaiting = min over nonzero waiting entries.
	if !d.MinWaiting.Equal(mid.SeqVector{0, 6, 0, 2}) {
		t.Errorf("MinWaiting = %v", d.MinWaiting)
	}
	// Everyone was heard: full group, nobody silent.
	if !d.FullGroup {
		t.Error("FullGroup should hold")
	}
	for i, a := range d.Attempts {
		if a != 0 {
			t.Errorf("Attempts[%d] = %d", i, a)
		}
	}
}

func TestCoordinatorCountsSilence(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}
	p, tp := newProc(t, 0, cfg)
	p.StartRound(0)
	p.Recv(1, req(1, 0, mid.NewSeqVector(3), mid.NewSeqVector(3), nil))
	// Process 2 silent.
	p.StartRound(1)
	d := tp.lastDecision(t)
	if d.Attempts[2] != 1 {
		t.Errorf("Attempts[2] = %d, want 1", d.Attempts[2])
	}
	if !d.Alive[2] {
		t.Error("one silent subrun must not declare a crash at K=2")
	}
	if d.FullGroup {
		t.Error("silent member not covered: FullGroup must be false")
	}
}

func TestAttemptsCirculateToDeclaration(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}

	// Coordinator of subrun 0 (p0) observes p2 silent once.
	p0, tp0 := newProc(t, 0, cfg)
	p0.StartRound(0)
	p0.Recv(1, req(1, 0, mid.NewSeqVector(3), mid.NewSeqVector(3), nil))
	p0.StartRound(1)
	d0 := tp0.lastDecision(t)

	// Coordinator of subrun 1 (p1) inherits the counter via the circulated
	// decision and observes p2 silent again: K=2 reached, crash declared.
	p1, tp1 := newProc(t, 1, cfg)
	p1.StartRound(2)
	p1.Recv(0, req(0, 1, mid.NewSeqVector(3), mid.NewSeqVector(3), d0))
	p1.StartRound(3)
	d1 := tp1.lastDecision(t)
	if d1.Attempts[2] < 2 {
		t.Errorf("Attempts[2] = %d, want >= 2", d1.Attempts[2])
	}
	if d1.Alive[2] {
		t.Error("p2 should be declared crashed after K silent subruns")
	}
	// Full group now holds on the reduced composition.
	if !d1.FullGroup {
		t.Error("FullGroup should hold over the survivors")
	}
}

func TestStabilityChainAccumulatesCoverage(t *testing.T) {
	cfg := Config{N: 4, K: 3, R: 7, SelfExclusion: true}

	// Subrun 0 at p0: only p1 reports (p2, p3 silent): partial chain.
	p0, tp0 := newProc(t, 0, cfg)
	p0.StartRound(0)
	p0.Recv(1, req(1, 0, mid.SeqVector{5, 5, 5, 5}, mid.NewSeqVector(4), nil))
	p0.StartRound(1)
	d0 := tp0.lastDecision(t)
	if d0.FullGroup {
		t.Fatal("chain incomplete, FullGroup must be false")
	}
	if !d0.Covered[0] || !d0.Covered[1] || d0.Covered[2] || d0.Covered[3] {
		t.Fatalf("Covered = %v", d0.Covered)
	}

	// Subrun 1 at p1: p2 and p3 report now (carrying d0), p0 silent — but
	// p0 is already covered by the chain, so the chain completes.
	p1, tp1 := newProc(t, 1, cfg)
	p1.StartRound(2)
	p1.Recv(2, req(2, 1, mid.SeqVector{4, 9, 9, 9}, mid.NewSeqVector(4), d0))
	p1.Recv(3, req(3, 1, mid.SeqVector{6, 9, 9, 9}, mid.NewSeqVector(4), d0))
	p1.StartRound(3)
	d1 := tp1.lastDecision(t)
	if !d1.FullGroup {
		t.Fatalf("chain should be complete: covered=%v alive=%v", d1.Covered, d1.Alive)
	}
	// CleanTo folds the chain minimum: p1's own report is all zero, so the
	// stable prefix is zero — conservative but correct. The interesting
	// entry is that the chain kept d0's coverage of p0.
	if !d1.Covered[0] {
		t.Error("chain lost p0's coverage")
	}
}

func TestSuicideOnDecision(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}
	var left []LeaveReason
	tp := &capture{}
	p, err := NewProcess(2, cfg, tp, Callbacks{
		OnLeave: func(r LeaveReason) { left = append(left, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &wire.Decision{
		Subrun: 5, Coord: 0,
		MaxProcessed: mid.NewSeqVector(3), MostUpdated: []mid.ProcID{mid.None, mid.None, mid.None},
		MinWaiting: mid.NewSeqVector(3), CleanTo: mid.NewSeqVector(3),
		Covered: []bool{true, true, false}, Attempts: []uint8{0, 0, 2},
		Alive: []bool{true, true, false}, FullGroup: true,
	}
	p.Recv(0, d)
	if p.Running() {
		t.Fatal("process should have committed suicide")
	}
	if len(left) != 1 || left[0] != Suicide {
		t.Errorf("left = %v", left)
	}
	// A halted process ignores everything.
	p.StartRound(12)
	p.Recv(0, d.Clone())
	if len(tp.bcasts) != 0 && len(tp.sends) != 0 {
		t.Error("halted process must not transmit")
	}
}

func TestDecisionTriggersRecovery(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}
	p, tp := newProc(t, 2, cfg)
	d := &wire.Decision{
		Subrun: 1, Coord: 0,
		MaxProcessed: mid.SeqVector{DefaultRecoveryBatch + 9, 0, 0},
		MostUpdated:  []mid.ProcID{0, mid.None, mid.None},
		MinWaiting:   mid.NewSeqVector(3), CleanTo: mid.NewSeqVector(3),
		Covered: []bool{true, true, true}, Attempts: make([]uint8, 3),
		Alive: []bool{true, true, true}, FullGroup: true,
	}
	p.Recv(0, d)
	if len(tp.sends) != 1 {
		t.Fatalf("sends = %v", tp.sends)
	}
	rec, ok := tp.sends[0].pdu.(*wire.Recover)
	if !ok || tp.sends[0].dst != 0 {
		t.Fatalf("expected RECOVER to p0, got %v to %d", tp.sends[0].pdu.Kind(), tp.sends[0].dst)
	}
	if len(rec.Wants) != 1 || rec.Wants[0] != (wire.WantRange{Proc: 0, From: 1, To: DefaultRecoveryBatch}) {
		t.Errorf("Wants = %v, want p0 1..%d (batch cap)", rec.Wants, DefaultRecoveryBatch)
	}
}

func TestRecoveryNotRequestedFromSelfOrNone(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}
	p, tp := newProc(t, 2, cfg)
	d := &wire.Decision{
		Subrun: 1, Coord: 0,
		MaxProcessed: mid.SeqVector{0, 0, 5}, // our own sequence: we are behind?!
		MostUpdated:  []mid.ProcID{mid.None, mid.None, 2},
		MinWaiting:   mid.NewSeqVector(3), CleanTo: mid.NewSeqVector(3),
		Covered: []bool{true, true, true}, Attempts: make([]uint8, 3),
		Alive: []bool{true, true, true}, FullGroup: true,
	}
	p.Recv(0, d)
	if len(tp.sends) != 0 {
		t.Errorf("must not recover from self: %v", tp.sends)
	}
}

func TestHandleRecoverAnswersFromHistory(t *testing.T) {
	// SelfExclusion off: this isolated process would otherwise leave after
	// K subruns without hearing any coordinator.
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: false}
	p, tp := newProc(t, 0, cfg)
	// Process three own messages into the history via the normal path.
	for s := mid.Seq(1); s <= 3; s++ {
		if _, err := p.Submit([]byte{byte(s)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.StartRound(0) // broadcasts first message, processes it
	p.StartRound(2)
	p.StartRound(4)
	p.Recv(1, &wire.Recover{Requester: 1, Wants: []wire.WantRange{{Proc: 0, From: 1, To: 2}}})
	var rt *wire.Retransmit
	for _, s := range tp.sends {
		if v, ok := s.pdu.(*wire.Retransmit); ok && s.dst == 1 {
			rt = v
		}
	}
	if rt == nil {
		t.Fatal("no retransmit answered")
	}
	if len(rt.Msgs) != 2 || rt.Msgs[0].ID.Seq != 1 || rt.Msgs[1].ID.Seq != 2 {
		t.Errorf("retransmitted %v", rt.Msgs)
	}
	// Unanswerable recover: nothing held for that range.
	before := len(tp.sends)
	p.Recv(1, &wire.Recover{Requester: 1, Wants: []wire.WantRange{{Proc: 2, From: 1, To: 5}}})
	if len(tp.sends) != before {
		t.Error("empty recover must not be answered")
	}
}

func TestStaleRequestIgnoredButDecisionHarvested(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}
	p, _ := newProc(t, 0, cfg)
	d := &wire.Decision{
		Subrun: 7, Coord: 1,
		MaxProcessed: mid.NewSeqVector(3), MostUpdated: []mid.ProcID{mid.None, mid.None, mid.None},
		MinWaiting: mid.NewSeqVector(3), CleanTo: mid.NewSeqVector(3),
		Covered: []bool{true, true, true}, Attempts: make([]uint8, 3),
		Alive: []bool{true, true, true}, FullGroup: true,
	}
	// A request for a subrun we are not coordinating still carries a
	// fresher decision we should keep.
	p.StartRound(0)
	p.Recv(1, req(1, 99, mid.NewSeqVector(3), mid.NewSeqVector(3), d))
	if p.lastDec == nil || p.lastDec.Subrun != 7 {
		t.Errorf("embedded decision not harvested: %+v", p.lastDec)
	}
}

func TestFlowControlDefersBroadcast(t *testing.T) {
	cfg := Config{N: 2, K: 2, R: 5, HistoryThreshold: 2, SelfExclusion: false}
	p, tp := newProc(t, 0, cfg)
	for i := 0; i < 4; i++ {
		if _, err := p.Submit([]byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Rounds 0 and 2 emit; by then the history holds 2 >= threshold, so
	// round 4 defers.
	p.StartRound(0)
	p.StartRound(2)
	p.StartRound(4)
	dataCount := 0
	for _, b := range tp.bcasts {
		if b.Kind() == wire.KindData {
			dataCount++
		}
	}
	if dataCount != 2 {
		t.Errorf("broadcast %d data messages, want 2 (flow control)", dataCount)
	}
	if p.PendingSubmissions() != 2 {
		t.Errorf("pending = %d, want 2", p.PendingSubmissions())
	}
	// Cleaning the history releases the valve.
	p.hist.CleanTo(mid.SeqVector{2, 0})
	p.StartRound(6)
	dataCount = 0
	for _, b := range tp.bcasts {
		if b.Kind() == wire.KindData {
			dataCount++
		}
	}
	if dataCount != 3 {
		t.Errorf("after cleaning, broadcasts = %d, want 3", dataCount)
	}
}

func TestDuplicateDataCounted(t *testing.T) {
	cfg := Config{N: 2, K: 2, R: 5, SelfExclusion: true}
	p, _ := newProc(t, 0, cfg)
	m := &causal.Message{ID: mid.MID{Proc: 1, Seq: 1}}
	p.Recv(1, &wire.Data{Msg: *m})
	p.Recv(1, &wire.Data{Msg: *m})
	if p.Stats.ProcessedN != 1 || p.Stats.Duplicates != 1 {
		t.Errorf("processed=%d dups=%d", p.Stats.ProcessedN, p.Stats.Duplicates)
	}
}

func TestMalformedDataIgnored(t *testing.T) {
	cfg := Config{N: 2, K: 2, R: 5, SelfExclusion: true}
	p, _ := newProc(t, 0, cfg)
	p.Recv(1, &wire.Data{Msg: causal.Message{}}) // zero MID
	if p.Stats.ProcessedN != 0 || p.WaitingLen() != 0 {
		t.Error("malformed message must be dropped")
	}
}
