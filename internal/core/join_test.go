package core

import (
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

// dec builds a minimal decision for join tests.
func dec(subrun int64, coord mid.ProcID, alive []bool, maxp mid.SeqVector) *wire.Decision {
	n := len(alive)
	d := &wire.Decision{
		Subrun: subrun, Coord: coord,
		MaxProcessed: maxp, MostUpdated: make([]mid.ProcID, n),
		MinWaiting: mid.NewSeqVector(n), CleanTo: mid.NewSeqVector(n),
		Attempts: make([]uint8, n), Alive: alive,
		Covered: make([]bool, n),
	}
	for i := range d.MostUpdated {
		d.MostUpdated[i] = mid.None
	}
	return d
}

// TestJoinerLifecycle walks a joiner end to end at the unit level: solicit,
// install, join-flagged request, admission, own-sequence catch-up, and the
// first accepted Submit continuing the old sequence past everything the
// group holds of it.
func TestJoinerLifecycle(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true, Join: true}
	p, tp := newProc(t, 2, cfg)
	if !p.Joining() {
		t.Fatal("joiner must start joining")
	}
	if _, err := p.Submit([]byte("x"), nil); err == nil {
		t.Fatal("Submit must be refused while joining")
	}

	// Pre-sync: the only thing a joiner does is solicit a sponsor...
	p.StartRound(0)
	if len(tp.sends) != 1 {
		t.Fatalf("pre-sync subrun sent %d PDUs, want 1", len(tp.sends))
	}
	if j, ok := tp.sends[0].pdu.(*wire.Join); !ok || j.Joiner != 2 || tp.sends[0].dst != 0 {
		t.Fatalf("want Join{2} to p0, got %T to p%d", tp.sends[0].pdu, tp.sends[0].dst)
	}
	// ...and everything else bounces off.
	p.Recv(0, &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 0, Seq: 1}, Payload: []byte("x")}})
	if p.WaitingLen() != 0 || p.Processed().Sum() != 0 {
		t.Fatal("pre-sync joiner must process nothing")
	}

	// The sponsor's state transfer: stability watermark {2,1,1}, sponsor
	// saw 2 messages of our old incarnation, freshest decision of subrun 7
	// declares us dead.
	prev := dec(7, 0, []bool{true, true, false}, mid.SeqVector{2, 1, 2})
	p.Recv(0, &wire.JoinState{
		Sponsor: 0, Resume: 2,
		Stable:    mid.SeqVector{2, 1, 1},
		Processed: mid.SeqVector{2, 1, 2},
		Prev:      prev,
	})
	if !p.Processed().Equal(mid.SeqVector{2, 1, 1}) {
		t.Fatalf("installed processed = %v", p.Processed())
	}
	if !p.Joining() {
		t.Fatal("still joining until a decision admits us")
	}
	if p.Subrun() != 7 {
		t.Fatalf("subrun not aligned to the decision: %d", p.Subrun())
	}

	// Post-sync request phase: a join-flagged REQUEST to the coordinator,
	// on the group's subrun numbering.
	tp.sends = nil
	p.StartRound(2) // local subrun 1 + bias 7 = 8
	if len(tp.sends) != 1 {
		t.Fatalf("post-sync subrun sent %d PDUs, want 1", len(tp.sends))
	}
	req, ok := tp.sends[0].pdu.(*wire.Request)
	if !ok || !req.Join || req.Subrun != 8 || tp.sends[0].dst != 0 {
		t.Fatalf("want join-flagged Request subrun 8 to p0, got %+v to p%d", tp.sends[0].pdu, tp.sends[0].dst)
	}

	// Admission: a fresher decision includes us; someone holds 3 messages
	// of our old sequence, so the resume point moves past them.
	p.Recv(0, dec(8, 0, []bool{true, true, true}, mid.SeqVector{2, 1, 3}))
	if p.Joining() {
		t.Fatal("admitting decision must end the join")
	}
	if _, err := p.Submit([]byte("x"), nil); err == nil {
		t.Fatal("Submit must be refused until the own sequence caught up")
	}

	// Catch up the own sequence through recovery, then generate: the new
	// message continues at seq 4, colliding with nothing.
	p.Recv(0, &wire.Retransmit{Responder: 0, Msgs: []*causal.Message{
		{ID: mid.MID{Proc: 2, Seq: 2}, Payload: []byte("old")},
		{ID: mid.MID{Proc: 2, Seq: 3}, Payload: []byte("old")},
	}})
	if got := p.Processed()[2]; got != 3 {
		t.Fatalf("own sequence at %d after recovery, want 3", got)
	}
	id, err := p.Submit([]byte("new"), nil)
	if err != nil {
		t.Fatalf("Submit after catch-up: %v", err)
	}
	if id.Seq != 4 {
		t.Fatalf("resumed sequence at %d, want 4", id.Seq)
	}
}

// TestCoordinatorAdmitsJoiner: a join-flagged request from a declared-dead
// member re-enters it into the coordinator's view and decision mask, with
// its attempts counter restarted — and the rotation includes it again.
func TestCoordinatorAdmitsJoiner(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true}
	p, tp := newProc(t, 0, cfg)
	p.Recv(1, dec(2, 1, []bool{true, true, false}, mid.NewSeqVector(3)))
	if p.View().Alive(2) {
		t.Fatal("crash not adopted")
	}
	if got := CoordinatorOf(2, p.View()); got != 0 {
		t.Fatalf("rotation must skip the dead member, got %d", got)
	}

	p.StartRound(6) // subrun 3: p0 coordinates
	jr := req(2, 3, mid.NewSeqVector(3), mid.NewSeqVector(3), nil)
	jr.Join = true
	p.Recv(2, jr)
	p.Recv(1, req(1, 3, mid.NewSeqVector(3), mid.NewSeqVector(3), nil))
	p.StartRound(7) // decision phase

	d := tp.lastDecision(t)
	if !d.Alive[2] {
		t.Fatal("decision must re-admit the joiner")
	}
	if d.Attempts[2] != 0 {
		t.Fatalf("joiner attempts = %d, want 0", d.Attempts[2])
	}
	if !p.View().Alive(2) {
		t.Fatal("coordinator view must re-admit the joiner")
	}
	if got := CoordinatorOf(2, p.View()); got != 2 {
		t.Fatalf("post-rejoin rotation must include the member, got %d", got)
	}
}

// TestThresholdPerAliveTracksView: the view-scaled flow-control threshold
// throttles against the live group size — shrinking the view tightens it,
// and a rejoin relaxes it back.
func TestThresholdPerAliveTracksView(t *testing.T) {
	cfg := Config{N: 4, K: 2, R: 5, SelfExclusion: false, ThresholdPerAlive: 2}
	p, _ := newProc(t, 3, cfg)
	round := 0
	subrun := func() { p.StartRound(round); round += 2 } // request phases only
	for i := 0; i < 5; i++ {
		if _, err := p.Submit([]byte("m"), nil); err != nil {
			t.Fatal(err)
		}
		subrun()
	}
	// All 4 alive: threshold 8, history 5 < 8 — everything flowed.
	if p.HistoryLen() != 5 || p.PendingSubmissions() != 0 {
		t.Fatalf("hist %d pending %d, want 5/0", p.HistoryLen(), p.PendingSubmissions())
	}

	// Two members die: threshold 2*2 = 4 <= 5 — generation defers.
	p.Recv(0, dec(50, 0, []bool{true, false, false, true}, mid.NewSeqVector(4)))
	if _, err := p.Submit([]byte("m"), nil); err != nil {
		t.Fatal(err)
	}
	subrun()
	if p.PendingSubmissions() != 1 {
		t.Fatalf("pending %d, want 1 (threshold must track the shrunk view)", p.PendingSubmissions())
	}

	// They rejoin: threshold back to 8 > 5 — the backlog drains.
	p.Recv(0, dec(51, 0, []bool{true, true, true, true}, mid.NewSeqVector(4)))
	subrun()
	if p.PendingSubmissions() != 0 {
		t.Fatalf("pending %d, want 0 (threshold must track the rejoined view)", p.PendingSubmissions())
	}
}

// TestRetransmitCompactedFastForward: a recovery answer naming a purged
// (uniformly stable) prefix lets a syncing joiner skip its frontier over
// the gap, dropping obsolete waiting copies, and resume processing the
// retained suffix.
func TestRetransmitCompactedFastForward(t *testing.T) {
	cfg := Config{N: 3, K: 2, R: 5, SelfExclusion: true, Join: true}
	p, _ := newProc(t, 2, cfg)
	p.Recv(0, &wire.JoinState{
		Sponsor: 0, Resume: 1,
		Stable:    mid.SeqVector{3, 2, 1},
		Processed: mid.SeqVector{6, 5, 1},
		Prev:      dec(5, 0, []bool{true, true, false}, mid.SeqVector{6, 5, 1}),
	})

	// (0,5) arrives but waits on a cross dependency.
	p.Recv(0, &wire.Data{Msg: causal.Message{
		ID: mid.MID{Proc: 0, Seq: 5}, Deps: mid.DepList{{Proc: 1, Seq: 5}}, Payload: []byte("x"),
	}})
	if p.WaitingLen() != 1 {
		t.Fatalf("waiting %d, want 1", p.WaitingLen())
	}

	// The responder purged p0's sequence through 5 as stable; the answer
	// fast-forwards us over the gap and the waiting copy is obsolete.
	p.Recv(0, &wire.Retransmit{
		Responder: 0,
		Msgs:      []*causal.Message{{ID: mid.MID{Proc: 0, Seq: 6}, Payload: []byte("x")}},
		Compacted: []wire.WantRange{{Proc: 0, From: 4, To: 5}},
	})
	if got := p.Processed()[0]; got != 6 {
		t.Fatalf("p0 frontier at %d, want 6 (fast-forward + retained suffix)", got)
	}
	if p.WaitingLen() != 0 {
		t.Fatal("stale waiting copy must be dropped by the fast-forward")
	}
	if p.Stats.FastForwards != 1 {
		t.Fatalf("FastForwards = %d, want 1", p.Stats.FastForwards)
	}
}

// crashWindow fail-stops one process for [at, until): inside the window the
// process neither sends nor receives; at until the site is back up — the
// model for a kill-and-restart experiment, where the new incarnation
// re-enters the group through the join protocol. (Crash knowledge already
// spread through decisions does not evaporate: the restarted process is
// re-admitted by a coordinator, not by the injector.) The simulated network
// drops a crashed process's traffic on Crashed alone, so the embedded None
// answers every datagram.
type crashWindow struct {
	faultrt.None
	proc      mid.ProcID
	at, until time.Duration
}

func (c crashWindow) Crashed(p mid.ProcID, now time.Duration) bool {
	return p == c.proc && now >= c.at && now < c.until
}

// TestSimJoinConvergence is the simulator-level rejoin scenario at n=5: a
// member fail-stops under load, is declared crashed, restarts as a joiner,
// state-transfers, is re-admitted, and the group converges — identical
// processed vectors, all-alive views everywhere, and the rejoined member
// generating again on its old sequence.
func TestSimJoinConvergence(t *testing.T) {
	const victim = 2
	c, err := NewCluster(ClusterConfig{
		Config: Config{N: 5, K: 2, R: 6, SelfExclusion: true},
		Seed:   7,
		Injector: crashWindow{
			proc: victim, at: sim.StartOfRound(40).Duration(), until: sim.StartOfRound(160).Duration(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rejoined := false
	victimSubmits := 0
	_, err = c.Run(RunOptions{
		MaxRounds: 2400, MinRounds: 420,
		StopWhenQuiescent: true, DrainSubruns: 8,
		OnRound: func(round int) {
			if round == 160 && !rejoined {
				rejoined = true
				if err := c.Rejoin(victim); err != nil {
					t.Fatal(err)
				}
			}
			if round%8 == 0 && round < 320 {
				for _, q := range []mid.ProcID{0, 1, 3} {
					if _, err := c.SubmitCausal(q, []byte("w")); err != nil {
						t.Fatal(err)
					}
				}
			}
			if round%8 == 4 && round < 36 {
				if _, err := c.SubmitCausal(victim, []byte("pre")); err != nil {
					t.Fatal(err)
				}
			}
			if rejoined && round%8 == 4 && round < 320 {
				// Refused while joining and while the own sequence resyncs;
				// accepted again once caught up.
				if _, err := c.SubmitCausal(victim, []byte("post")); err == nil {
					victimSubmits++
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	p := c.Proc(victim)
	if !p.Running() {
		t.Fatalf("rejoined member left again: %v", c.Left[victim])
	}
	if p.Joining() {
		t.Fatal("rejoined member never admitted")
	}
	if victimSubmits == 0 {
		t.Fatal("rejoined member never generated")
	}
	if _, left := c.Left[victim]; left {
		t.Fatal("Left record not cleared by rejoin")
	}
	for i := 0; i < c.N(); i++ {
		if got := c.Proc(mid.ProcID(i)).View().AliveCount(); got != 5 {
			t.Errorf("p%d view has %d alive, want 5", i, got)
		}
	}
	ref := c.Proc(0).Processed()
	for i := 1; i < c.N(); i++ {
		if !ref.Equal(c.Proc(mid.ProcID(i)).Processed()) {
			t.Errorf("p%d processed %v, want %v", i, c.Proc(mid.ProcID(i)).Processed(), ref)
		}
	}
}
