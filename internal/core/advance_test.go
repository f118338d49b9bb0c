package core

import (
	"fmt"
	"math"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/group"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// at is subrun (T, k)'s number.
func at(clock, early int64) int64 { return clock | early<<earlyShift }

// TestSubrunNumbering pins the (T, k) order every freshness check uses —
// by clock subrun, then early index, whatever the packed integers' own
// order — the validity bound, and the coordinator rotation by T+k.
func TestSubrunNumbering(t *testing.T) {
	order := []int64{at(0, 0), at(0, 1), at(0, 2), at(1, 0), at(1, maxEarly-1), at(2, 0), at(clockMask, 0), at(clockMask, maxEarly-1)}
	for i, a := range order {
		if !validSubrun(a) {
			t.Errorf("%#x is a subrun a member may open, yet invalid", a)
		}
		if c, k := SplitSubrun(a); at(c, k) != a {
			t.Errorf("SplitSubrun(%#x) = (%d, %d) does not pack back", a, c, k)
		}
		for j, b := range order {
			if got := laterSubrun(a, b); got != (i > j) {
				t.Errorf("laterSubrun(%#x, %#x) = %v, want %v", a, b, got, i > j)
			}
		}
	}
	for _, bad := range []int64{-1, math.MinInt64, at(0, maxEarly), math.MaxInt64} {
		if validSubrun(bad) {
			t.Errorf("%#x is valid: in the packed order it would outrank every subrun a member opens", bad)
		}
	}
	v := group.NewView(3)
	for _, c := range []struct {
		s    int64
		want mid.ProcID
	}{{at(1, 0), 1}, {at(1, 1), 2}, {at(1, 2), 0}, {at(2, 0), 2}} {
		if got := CoordinatorOf(c.s, v); got != c.want {
			t.Errorf("CoordinatorOf(%#x) = %d, want %d", c.s, got, c.want)
		}
	}
}

// forgedSubruns are PDUs naming subruns no member opens: negative, or with
// an early index past the bound. Each decodes cleanly.
func forgedSubruns() []wire.PDU {
	n := mid.NewSeqVector(3)
	return []wire.PDU{
		fullGroupDecision(3, -1, 1, n),
		fullGroupDecision(3, at(0, maxEarly), 1, n),
		&wire.Request{Sender: 1, Subrun: -1, LastProcessed: n, Waiting: n},
		&wire.Request{Sender: 1, Subrun: 0, LastProcessed: n, Waiting: n, Prev: fullGroupDecision(3, math.MinInt64, 2, n)},
	}
}

// TestForgedSubrunsAreMalformed: a decision or request naming a subrun no
// member opens is dropped and counted, and does not poison the freshness
// checks — a genuine decision after it is still fresh.
func TestForgedSubrunsAreMalformed(t *testing.T) {
	p, _ := newProc(t, 0, Config{N: 3, K: 2, R: 5})
	p.StartRound(0) // p0 coordinates subrun 0: a forged request reaches the table's guard
	for _, pdu := range forgedSubruns() {
		buf, err := wire.Marshal(pdu)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := wire.Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		p.Recv(1, decoded)
		p.Advance()
	}
	if got, want := p.Stats.Malformed, len(forgedSubruns()); got != want {
		t.Errorf("Stats.Malformed = %d, want %d", got, want)
	}
	if p.lastDec != nil || p.heard[1] {
		t.Fatalf("a forged subrun was kept: last decision %+v, p1 heard %v", p.lastDec, p.heard[1])
	}
	p.Recv(1, fullGroupDecision(3, 1, 1, mid.NewSeqVector(3)))
	if p.lastDec == nil || p.lastDec.Subrun != 1 {
		t.Fatalf("a genuine decision after the forged ones was not applied: %+v", p.lastDec)
	}
}

// TestEarlyDecisionNeedsFullTable: the coordinator decides its subrun on the
// arrival that completes the table — every believed-alive member's REQUEST,
// a crashed member's not needed — and only once: the odd tick, the deadline,
// does not decide again.
func TestEarlyDecisionNeedsFullTable(t *testing.T) {
	zero := mid.NewSeqVector(3)
	p, tp := newProc(t, 0, Config{N: 3, K: 2, R: 5})
	p.StartRound(0) // p0 coordinates (0, 0); its own report is in
	p.Recv(1, req(1, 0, mid.SeqVector{0, 2, 0}, zero, nil))
	p.Advance()
	if len(tp.bcasts) != 0 {
		t.Fatalf("decided with p2's report missing: %v", tp.bcasts)
	}
	p.Recv(2, req(2, 0, mid.SeqVector{0, 1, 0}, zero, nil))
	p.Advance()
	d := tp.lastDecision(t)
	if d.Subrun != 0 || !d.FullGroup || d.MaxProcessed[1] != 2 || d.CleanTo[1] != 0 {
		t.Fatalf("early decision %+v: want subrun 0, full group, p1's 2 most updated and nothing stable", d)
	}
	for q, a := range d.Attempts {
		if a != 0 || !d.Alive[q] {
			t.Errorf("early decision counts p%d: attempts %d, alive %v", q, a, d.Alive[q])
		}
	}
	p.StartRound(1)
	if p.Stats.Decisions != 1 || len(tp.bcasts) != 1 {
		t.Fatalf("%d decisions, %d broadcasts: the odd tick decided the subrun again", p.Stats.Decisions, len(tp.bcasts))
	}

	// A crashed member is not waited for.
	q, qtp := newProc(t, 1, Config{N: 3, K: 2, R: 5})
	crashed := fullGroupDecision(3, 0, 0, zero)
	crashed.Alive[2] = false
	q.Recv(0, crashed)
	q.StartRound(2) // p1 coordinates (1, 0)
	q.Recv(0, req(0, 1, zero, zero, nil))
	q.Advance()
	if d := qtp.lastDecision(t); d.Subrun != 1 || d.Coord != 1 || !d.FullGroup {
		t.Fatalf("with p2 crashed, p0's report completes the table: got %+v", d)
	}
}

// TestEarlyOpenConditions: a member that holds the decision of its current
// subrun opens the next one at once only if it is in step — running,
// admitted, nothing waiting, no recovery failure outstanding — and agreement
// has work: a queued message, or a processed one not yet stable.
func TestEarlyOpenConditions(t *testing.T) {
	data := func(q mid.ProcID, s mid.Seq) *wire.Data {
		return &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: q, Seq: s}, Payload: []byte("x")}}
	}
	for _, c := range []struct {
		name   string
		join   bool
		setup  func(t *testing.T, p *Process)
		decide func(d *wire.Decision) // nil: no decision arrives
		open   bool
	}{
		{name: "queued message", setup: func(t *testing.T, p *Process) { mustSubmit(t, p, "queued") }, decide: func(*wire.Decision) {}, open: true},
		{name: "unstable message", setup: func(_ *testing.T, p *Process) { p.Recv(1, data(1, 1)) }, decide: func(*wire.Decision) {}, open: true},
		{name: "nothing to do", decide: func(*wire.Decision) {}},
		{name: "no decision yet", setup: func(t *testing.T, p *Process) { mustSubmit(t, p, "queued") }},
		{name: "waiting message", setup: func(t *testing.T, p *Process) {
			mustSubmit(t, p, "queued")
			p.Recv(1, data(1, 2)) // (1,1) missing
		}, decide: func(*wire.Decision) {}},
		{name: "recovery failure", setup: func(t *testing.T, p *Process) { mustSubmit(t, p, "queued") }, decide: func(d *wire.Decision) {
			d.MaxProcessed[1], d.MostUpdated[1] = 3, 1 // behind on p1, and no progress since the last decision
		}},
		{name: "joining", join: true, decide: func(*wire.Decision) {}},
		{name: "left", setup: func(t *testing.T, p *Process) { mustSubmit(t, p, "queued") }, decide: func(d *wire.Decision) { d.Alive[2] = false }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, tp := newProc(t, 2, Config{N: 3, K: 3, R: 8, SelfExclusion: true, Join: c.join})
			p.StartRound(0) // (0, 0), coordinated by p0
			if c.setup != nil {
				c.setup(t, p)
			}
			if c.decide != nil {
				d := fullGroupDecision(3, 0, 0, mid.NewSeqVector(3))
				c.decide(d)
				p.Recv(0, d)
			}
			p.Advance()
			wantEarly := 0
			if c.open {
				wantEarly = 1
			}
			if opened := p.Subrun() == at(0, 1); opened != c.open || p.Stats.EarlySubruns != wantEarly {
				t.Fatalf("subrun %#x with %d early subruns opened, want an early subrun opened: %v", p.Subrun(), p.Stats.EarlySubruns, c.open)
			}
			if !c.open {
				return
			}
			last := tp.sends[len(tp.sends)-1]
			if r, ok := last.pdu.(*wire.Request); !ok || r.Subrun != at(0, 1) || last.dst != 1 {
				t.Fatalf("last send %+v to p%d, want the REQUEST of (0, 1) to its coordinator p1", last.pdu, last.dst)
			}
		})
	}
}

// TestEarlySubrunCountsNoFault: the R rule counts clock subruns only — early
// decisions that find the member still behind leave its failure count where
// the clock's last decision put it.
func TestEarlySubrunCountsNoFault(t *testing.T) {
	p, _ := newProc(t, 1, Config{N: 3, K: 3, R: 8, SelfExclusion: true})
	p.StartRound(0)
	behind := func(s int64) *wire.Decision {
		d := fullGroupDecision(3, s, 0, mid.NewSeqVector(3))
		d.MaxProcessed[2], d.MostUpdated[2] = 3, 2 // p2's 1..3, which never arrive
		return d
	}
	p.Recv(0, behind(at(0, 0)))
	if p.recoveryFailures != 1 {
		t.Fatalf("a clock decision finding the member behind: %d recovery failures, want 1", p.recoveryFailures)
	}
	for k := int64(1); k <= 3; k++ {
		p.Recv(0, behind(at(0, k)))
	}
	if p.recoveryFailures != 1 || p.Stats.Recoveries != 4 {
		t.Fatalf("after three early decisions: %d recovery failures (want 1), %d RECOVERs (want 4)", p.recoveryFailures, p.Stats.Recoveries)
	}
	p.Recv(0, behind(at(1, 0)))
	if p.recoveryFailures != 2 {
		t.Fatalf("the next clock decision: %d recovery failures, want 2", p.recoveryFailures)
	}
}

// TestTickAbandonsEarlySubrun: an early subrun that cannot gather every
// report is not decided at the odd tick and is abandoned at the even one,
// with nothing counted — no silent coordinator, no silent member in the
// next clock decision.
func TestTickAbandonsEarlySubrun(t *testing.T) {
	zero := mid.NewSeqVector(3)
	p, tp := newProc(t, 1, Config{N: 3, K: 3, R: 8, SelfExclusion: true})
	p.StartRound(0)
	mustSubmit(t, p, "work")
	p.Recv(0, fullGroupDecision(3, 0, 0, zero))
	p.Advance()
	if p.Subrun() != at(0, 1) {
		t.Fatalf("subrun %#x, want (0, 1), which p1 coordinates", p.Subrun())
	}
	p.Recv(0, req(0, at(0, 1), zero, zero, nil))
	p.Advance() // p2 never reports
	p.StartRound(1)
	if p.Stats.Decisions != 0 {
		t.Fatalf("the odd tick decided early subrun (0, 1) without p2's report")
	}
	p.StartRound(2)
	if p.Subrun() != at(1, 0) || p.missedCoords != 0 || !p.Running() {
		t.Fatalf("after the even tick: subrun %#x, %d coordinators missed, running %v; want (1, 0), none, true",
			p.Subrun(), p.missedCoords, p.Running())
	}
	p.Recv(0, req(0, 1, zero, zero, nil))
	p.Recv(2, req(2, 1, zero, zero, nil))
	p.Advance()
	d := tp.lastDecision(t)
	if d.Subrun != 1 || d.Attempts[2] != 0 {
		t.Fatalf("decision %+v: want (1, 0) with p2 counted silent nowhere", d)
	}
}

// TestCatchUpAfterLostDecision: a member whose early subrun's decision was
// lost catches up on the decision of a later early subrun of the same
// period, and opens the one after it; the lost decision arriving late is
// stale.
func TestCatchUpAfterLostDecision(t *testing.T) {
	zero := mid.NewSeqVector(3)
	p, tp := newProc(t, 0, Config{N: 3, K: 3, R: 8})
	p.StartRound(0) // p0 coordinates (0, 0)
	mustSubmit(t, p, "work")
	p.Flush()
	p.Recv(1, req(1, 0, zero, zero, nil))
	p.Recv(2, req(2, 0, zero, zero, nil))
	p.Advance() // decides (0, 0), opens (0, 1): p1's
	if p.Subrun() != at(0, 1) || p.Stats.Decisions != 1 {
		t.Fatalf("subrun %#x after %d decisions, want (0, 1) after 1", p.Subrun(), p.Stats.Decisions)
	}
	// (0, 1)'s decision is lost; (0, 2)'s, by p2, arrives.
	p.Recv(2, fullGroupDecision(3, at(0, 2), 2, zero))
	p.Advance()
	if p.Subrun() != at(0, 3) || p.Stats.EarlySubruns != 2 {
		t.Fatalf("subrun %#x with %d early subruns, want (0, 3), opened on (0, 2)'s decision", p.Subrun(), p.Stats.EarlySubruns)
	}
	if r, ok := tp.sends[len(tp.sends)-1].pdu.(*wire.Request); ok && r.Subrun != at(0, 1) {
		t.Fatalf("p0 sent a REQUEST for %#x, yet coordinates (0, 3) itself", r.Subrun)
	}
	p.Recv(1, fullGroupDecision(3, at(0, 1), 1, zero))
	if p.lastDec.Subrun != at(0, 2) {
		t.Fatalf("the lost decision, arriving late, replaced (0, 2)'s: last decision %#x", p.lastDec.Subrun)
	}
}

// pacedNet is a group whose every PDU is delivered in send order and whose
// processes, as the live runtime's, Advance after every event: a tick, a
// submission, a delivery.
type pacedNet struct {
	t     *testing.T
	procs []*Process
	queue []pacedFrame
	// sent counts each member's own messages broadcast in each subrun.
	sent []map[int64]int
}

type pacedFrame struct {
	src, dst mid.ProcID
	pdu      wire.PDU
}

type pacedLink struct {
	net  *pacedNet
	self mid.ProcID
}

func (l pacedLink) Send(dst mid.ProcID, pdu wire.PDU) {
	l.net.queue = append(l.net.queue, pacedFrame{l.self, dst, wire.Clone(pdu)})
}

func (l pacedLink) Broadcast(pdu wire.PDU) {
	for q := range l.net.procs {
		if mid.ProcID(q) != l.self {
			l.Send(mid.ProcID(q), pdu)
		}
	}
}

func newPacedNet(t *testing.T, cfg Config) *pacedNet {
	net := &pacedNet{t: t}
	for i := 0; i < cfg.N; i++ {
		id := mid.ProcID(i)
		sent := map[int64]int{}
		var p *Process
		p, err := NewProcess(id, cfg, pacedLink{net, id}, Callbacks{
			OnBroadcast: func(*causal.Message) { sent[p.Subrun()]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		net.procs, net.sent = append(net.procs, p), append(net.sent, sent)
	}
	return net
}

func (net *pacedNet) tick(r int) {
	for _, p := range net.procs {
		p.StartRound(r)
		p.Advance()
	}
	net.pump()
}

// submit is the runtime's submit step: queue, flush, advance.
func (net *pacedNet) submit(i, msgs int) {
	p := net.procs[i]
	for k := 0; k < msgs; k++ {
		mustSubmit(net.t, p, fmt.Sprintf("m%d", k))
	}
	p.Flush()
	p.Advance()
}

func (net *pacedNet) pump() {
	for delivered := 0; len(net.queue) > 0; delivered++ {
		if delivered > 1_000_000 {
			net.t.Fatal("the group never went quiet")
		}
		f := net.queue[0]
		net.queue = net.queue[1:]
		p := net.procs[f.dst]
		p.Recv(f.src, f.pdu)
		p.Advance()
	}
}

// TestArrivalsPaceAgreement: after one tick opens the group, arrivals alone
// carry it through a burst — every message processed and stable everywhere
// with no further tick — in subruns that each carry at most BatchMax of a
// member's messages and count nobody silent; then it goes quiet, which is
// what leaves an idle group to the clock.
func TestArrivalsPaceAgreement(t *testing.T) {
	const n, b, rounds, per = 3, 4, 4, 10
	net := newPacedNet(t, Config{N: n, K: 3, R: 8, SelfExclusion: true, BatchMax: b})
	net.tick(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			net.submit(i, per)
		}
		net.pump()
	}
	want := mid.SeqVector{rounds * per, rounds * per, rounds * per}
	for i, p := range net.procs {
		if !p.Running() || !p.Processed().Equal(want) || !p.StableTo().Equal(want) || p.PendingSubmissions() != 0 {
			t.Fatalf("p%d: running %v, processed %v, stable to %v, %d pending; want everything processed and stable",
				i, p.Running(), p.Processed(), p.StableTo(), p.PendingSubmissions())
		}
		if p.Stats.EarlySubruns == 0 {
			t.Errorf("p%d opened no early subrun", i)
		}
		for s, msgs := range net.sent[i] {
			if msgs > b {
				t.Errorf("p%d broadcast %d messages in subrun %#x, more than BatchMax %d", i, msgs, s, b)
			}
		}
		for q, a := range p.lastDec.Attempts {
			if a != 0 || !p.View().Alive(mid.ProcID(q)) {
				t.Errorf("p%d's last decision counts p%d silent %d times (alive %v)", i, q, a, p.View().Alive(mid.ProcID(q)))
			}
		}
	}
	before := net.procs[0].Stats.EarlySubruns
	for _, p := range net.procs {
		p.Advance()
	}
	if len(net.queue) != 0 || net.procs[0].Stats.EarlySubruns != before {
		t.Fatal("a quiet group still opened subruns on its own")
	}
}
