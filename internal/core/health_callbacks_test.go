package core

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// fullGroupDecision builds a benign full-group decision for a group of n:
// everyone alive, nothing to recover, stability at clean.
func fullGroupDecision(n int, subrun int64, coord mid.ProcID, clean mid.SeqVector) *wire.Decision {
	d := &wire.Decision{
		Subrun:       subrun,
		Coord:        coord,
		MaxProcessed: clean.Clone(),
		MostUpdated:  make([]mid.ProcID, n),
		MinWaiting:   mid.NewSeqVector(n),
		CleanTo:      clean.Clone(),
		Attempts:     make([]uint8, n),
		Alive:        make([]bool, n),
		Covered:      make([]bool, n),
		FullGroup:    true,
	}
	for q := range d.MostUpdated {
		d.MostUpdated[q] = mid.None
		d.Alive[q] = true
		d.Covered[q] = true
	}
	return d
}

// TestOnSubrunStartTracksCoordinator pins the token pass: on every subrun
// start Stats counts the opening, the accessor reports the coordinator of
// the moment, and the rotation skips members removed from the view.
func TestOnSubrunStartTracksCoordinator(t *testing.T) {
	// SelfExclusion off: the bare process under test hears no coordinators
	// and must not leave through the silence rule mid-test.
	cfg := Config{N: 3, K: 2, R: 5}
	tp := &capture{}
	p, err := NewProcess(0, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	pass := func(round int, subrun int64, coord mid.ProcID) {
		t.Helper()
		p.StartRound(round)
		if p.Subrun() != subrun || p.CurrentCoordinator() != coord || p.Stats.Subruns != int(subrun)+1 {
			t.Fatalf("round %d: subrun %d, coordinator %d, %d subruns opened; want %d, %d, %d",
				round, p.Subrun(), p.CurrentCoordinator(), p.Stats.Subruns, subrun, coord, subrun+1)
		}
	}
	pass(0, 0, 0)
	pass(2, 1, 1)
	// A decision declares 1 crashed; subrun 2's token goes to 2, and the
	// next rotation wraps past the hole.
	d := fullGroupDecision(3, 1, 1, mid.NewSeqVector(3))
	d.Alive[1] = false
	p.Recv(1, d)
	pass(4, 2, 2)
	pass(6, 3, 0)
	pass(8, 4, 2) // start 1 crashed -> coord 2
}

// TestOnViewChangeFromDecision pins the adopt path: a decision removing a
// member counts one crash declaration and one view change in Stats.
func TestOnViewChangeFromDecision(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}
	tp := &capture{}
	p, err := NewProcess(0, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	d := fullGroupDecision(3, 0, 1, mid.NewSeqVector(3))
	d.Alive[2] = false
	p.Recv(1, d)
	if p.Stats.CrashDeclarations != 1 || p.Stats.ViewChanges != 1 {
		t.Fatalf("declarations = %d, view changes = %d, want 1 and 1", p.Stats.CrashDeclarations, p.Stats.ViewChanges)
	}
	if v := p.View(); !v.Alive(0) || !v.Alive(1) || v.Alive(2) || v.AliveCount() != 2 {
		t.Fatalf("view = %v, want [true true false]", v)
	}
	// Re-adopting the same mask is not a view change.
	d2 := fullGroupDecision(3, 1, 1, mid.NewSeqVector(3))
	d2.Alive[2] = false
	p.Recv(1, d2)
	if p.Stats.CrashDeclarations != 1 || p.Stats.ViewChanges != 1 {
		t.Fatalf("unchanged mask counted again: declarations = %d, view changes = %d",
			p.Stats.CrashDeclarations, p.Stats.ViewChanges)
	}
}

// TestOnViewChangeFromSilenceDeclaration pins the coordinator path: a
// coordinator whose attempts counters saturate counts one view change in
// Stats for the batch of declarations it makes itself.
func TestOnViewChangeFromSilenceDeclaration(t *testing.T) {
	cfg := Config{N: 3, K: 1, R: 1}
	tp := &capture{}
	p, err := NewProcess(0, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	// Subrun 0: p0 coordinates, hears nobody. K=1 declares 1 and 2 at once.
	p.StartRound(0)
	p.StartRound(1)
	if p.Stats.ViewChanges != 1 || p.Stats.CrashDeclarations != 2 {
		t.Fatalf("view changes = %d, declarations = %d, want 1 and 2", p.Stats.ViewChanges, p.Stats.CrashDeclarations)
	}
	if v := p.View(); !v.Alive(0) || v.Alive(1) || v.Alive(2) {
		t.Fatalf("view = %v, want [true false false]", v)
	}
}

// TestStableToTracksFullGroupDecisions pins the StableTo accessor: zero
// before any full-group decision, then the clipped clean vector after.
func TestStableToTracksFullGroupDecisions(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}
	tp := &capture{}
	p, err := NewProcess(0, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.StableTo().Equal(mid.NewSeqVector(3)) {
		t.Fatalf("StableTo before any decision = %v, want zeros", p.StableTo())
	}
	p.Recv(1, &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 1, Seq: 1}, Payload: []byte("x")}})
	d := fullGroupDecision(3, 0, 1, mid.SeqVector{0, 1, 0})
	p.Recv(1, d)
	if !p.StableTo().Equal(mid.SeqVector{0, 1, 0}) {
		t.Fatalf("StableTo = %v, want [0 1 0]", p.StableTo())
	}
	// A non-full-group decision must not advance the watermark.
	d2 := fullGroupDecision(3, 1, 1, mid.SeqVector{0, 9, 0})
	d2.FullGroup = false
	p.Recv(1, d2)
	if !p.StableTo().Equal(mid.SeqVector{0, 1, 0}) {
		t.Fatalf("partial-chain decision advanced StableTo to %v", p.StableTo())
	}
}

// TestHealthFactsFollowTheirPaths pins the facts /healthz judges, each a
// clock subrun: TokenSubrun moves on another coordinator's decision, not on
// this process's own while others can coordinate; WaitingSince is stamped
// when the waiting list fills, not while it stays full; StableSubrun moves
// when a full-group decision cleans history, not when it cleans nothing; and
// Declared names the member the view last lost.
func TestHealthFactsFollowTheirPaths(t *testing.T) {
	p, err := NewProcess(0, Config{N: 3, K: 3, R: 7}, &capture{}, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	data := func(seq mid.Seq) *wire.Data {
		return &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 1, Seq: seq}, Payload: []byte("x")}}
	}
	for r := 0; r < 8; r++ {
		p.StartRound(r) // subruns 0..3; p0 decides 0 and 3, hearing nobody
	}
	if p.DecisionSubrun() != 3 || p.TokenSubrun() != 0 {
		t.Fatalf("after its own decision of subrun 3: decision %d, token %d; want 3 and 0", p.DecisionSubrun(), p.TokenSubrun())
	}
	p.StartRound(8) // subrun 4
	p.Recv(1, fullGroupDecision(3, 4, 1, mid.NewSeqVector(3)))
	if p.TokenSubrun() != 4 || p.StableSubrun() != 0 {
		t.Fatalf("after p1's decision of subrun 4: token %d, stable %d; want 4 and 0", p.TokenSubrun(), p.StableSubrun())
	}

	p.Recv(1, data(2)) // waits for (1,1)
	p.StartRound(10)   // subrun 5
	p.Recv(1, data(3))
	if p.WaitingLen() != 2 || p.WaitingSince() != 4 {
		t.Fatalf("waiting %d since %d, want 2 since subrun 4", p.WaitingLen(), p.WaitingSince())
	}
	p.Recv(1, data(1))
	p.Recv(2, fullGroupDecision(3, 5, 2, mid.SeqVector{0, 3, 0}))
	if p.WaitingLen() != 0 || p.HistoryLen() != 0 || p.StableSubrun() != 5 {
		t.Fatalf("waiting %d, history %d, stable since %d; want 0, 0, subrun 5", p.WaitingLen(), p.HistoryLen(), p.StableSubrun())
	}
	p.StartRound(12) // subrun 6
	d := fullGroupDecision(3, 6, 0, mid.SeqVector{0, 3, 0})
	d.Alive[2] = false
	p.Recv(1, d)
	if q, at := p.Declared(); p.StableSubrun() != 5 || q != 2 || at != 6 {
		t.Fatalf("stable since %d, declared p%d at %d; want 5, p2 at 6", p.StableSubrun(), q, at)
	}
}
