package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// borrowNet is a lockstep datagram network that holds both sides of the
// borrow rule to their word. It is done with a PDU when Send or Broadcast
// returns — it marshals, like every live transport — and Recv gets a PDU
// decoded fresh from those bytes. With poison on it then does what the next
// use of a recycled record would: the moment Send/Broadcast return it
// overwrites the sender's PDU, and the moment Recv returns it overwrites the
// control PDU it delivered. Anything a process kept by pointer instead of by
// copy turns to garbage and steers the run somewhere else.
//
// One thing a lender may not do is write to what it was lent, and the sender
// goes on reading two things it lends: a Decision it broadcasts becomes its
// lastDec, and a Request's or JoinState's Prev *is* its lastDec. wire.Poison
// never follows a Prev for that reason, and the send side leaves a Decision
// alone; the receive side, which owns what it decoded, poisons both.
type borrowNet struct {
	t      *testing.T
	procs  []*Process
	down   []bool // fail-stopped: neither ticks nor receives
	rng    *rand.Rand
	poison bool
	queue  []borrowFrame

	issued    map[string]bool  // every decision a coordinator broadcast, encoded
	processed [][]mid.MID      // per member, in processing order
	decisions []string         // every decision applied, by whom, byte for byte
	left      map[int][]string // leave reasons per member slot, every incarnation
}

type borrowFrame struct {
	src, dst mid.ProcID
	buf      []byte
}

type borrowTP struct {
	net  *borrowNet
	self mid.ProcID
}

func (tp borrowTP) Send(dst mid.ProcID, pdu wire.PDU) {
	tp.net.post(tp.self, []mid.ProcID{dst}, pdu)
}

func (tp borrowTP) Broadcast(pdu wire.PDU) {
	var dsts []mid.ProcID
	for i := range tp.net.procs {
		if mid.ProcID(i) != tp.self {
			dsts = append(dsts, mid.ProcID(i))
		}
	}
	tp.net.post(tp.self, dsts, pdu)
}

func (b *borrowNet) post(src mid.ProcID, dsts []mid.ProcID, pdu wire.PDU) {
	buf, err := wire.Marshal(pdu)
	if err != nil {
		b.t.Fatalf("member %d sent an unencodable %v: %v", src, pdu.Kind(), err)
	}
	// Reliable circulation: the decision a Request or JoinState carries is one
	// a coordinator issued, to the byte — a holder that scribbles on its
	// lastDec (say, by clipping the CleanTo it was meant to copy) forwards
	// something nobody decided.
	switch v := pdu.(type) {
	case *wire.Decision:
		b.issued[string(buf)] = true
	case *wire.Request:
		b.checkCirculated(src, v.Prev)
	case *wire.JoinState:
		b.checkCirculated(src, v.Prev)
	}
	for _, dst := range dsts {
		if b.rng.Intn(20) == 0 {
			continue // a 5% omission, from the seed
		}
		b.queue = append(b.queue, borrowFrame{src, dst, buf})
	}
	if _, live := pdu.(*wire.Decision); b.poison && !live {
		wire.Poison(pdu)
	}
}

func (b *borrowNet) checkCirculated(src mid.ProcID, prev *wire.Decision) {
	if prev == nil {
		return
	}
	buf, err := wire.Marshal(prev)
	if err != nil {
		b.t.Fatalf("member %d forwards an unencodable decision: %v", src, err)
	}
	if !b.issued[string(buf)] {
		b.t.Errorf("member %d forwards a decision of subrun %d that no coordinator issued in that form", src, prev.Subrun)
	}
}

// deliver drains the queue, answers included, like a round's worth of
// datagrams.
func (b *borrowNet) deliver() {
	for i := 0; i < len(b.queue); i++ {
		f := b.queue[i]
		if b.down[f.dst] {
			continue
		}
		pdu, err := wire.Unmarshal(f.buf)
		if err != nil {
			b.t.Fatalf("own frame does not decode: %v", err)
		}
		b.procs[f.dst].Recv(f.src, pdu)
		if !b.poison {
			continue
		}
		switch v := pdu.(type) {
		case *wire.Data, *wire.DataBatch, *wire.Retransmit:
			// The receiver keeps their message records: not ours to touch.
		case *wire.Request:
			if v.Prev != nil {
				wire.Poison(v.Prev)
			}
			wire.Poison(v)
		case *wire.JoinState:
			if v.Prev != nil {
				wire.Poison(v.Prev)
			}
			wire.Poison(v)
		default:
			wire.Poison(pdu)
		}
	}
	b.queue = b.queue[:0]
}

func (b *borrowNet) spawn(i int, cfg Config) {
	id := mid.ProcID(i)
	p, err := NewProcess(id, cfg, borrowTP{b, id}, Callbacks{
		OnProcess: func(m *causal.Message) { b.processed[i] = append(b.processed[i], m.ID) },
		OnDecision: func(d *wire.Decision) {
			buf, err := wire.Marshal(d)
			if err != nil {
				b.t.Fatalf("member %d applied an unencodable decision: %v", i, err)
			}
			b.decisions = append(b.decisions, fmt.Sprintf("p%d %x", i, buf))
		},
		OnLeave: func(r LeaveReason) { b.left[i] = append(b.left[i], r.String()) },
	})
	if err != nil {
		b.t.Fatal(err)
	}
	b.procs[i] = p
}

// runBorrowGroup drives a five-member group for 120 subruns from one seed:
// 5% omissions throughout, causal traffic from every running member, member
// 3 fail-stopped at subrun 20 (the group excludes it) and restarted as a
// joiner at subrun 50 (state transfer, recovery, re-admission).
func runBorrowGroup(t *testing.T, poison bool) *borrowNet {
	const n = 5
	cfg := Config{N: n, K: 3, R: 8, SelfExclusion: true, BatchMax: 3}
	b := &borrowNet{
		t: t, procs: make([]*Process, n), down: make([]bool, n),
		rng: rand.New(rand.NewSource(18)), poison: poison,
		issued: map[string]bool{}, processed: make([][]mid.MID, n), left: map[int][]string{},
	}
	for i := 0; i < n; i++ {
		b.spawn(i, cfg)
	}
	for round := 0; round < 240; round++ {
		switch round {
		case 40:
			b.down[3] = true
		case 100:
			join := cfg
			join.Join = true
			b.spawn(3, join)
			b.down[3] = false
		}
		for i, p := range b.procs {
			if b.down[i] {
				continue
			}
			if round%2 == 0 && round < 200 && p.Running() && !p.Joining() {
				for k := 0; k <= i%3; k++ { // uneven rates: singletons and batches
					// A resyncing rejoiner refuses; so it does in both runs.
					_, _ = p.SubmitCausal([]byte(fmt.Sprintf("m%d-%d-%d", i, round, k)))
				}
			}
			p.StartRound(round)
		}
		b.deliver()
	}
	return b
}

// TestBorrowedPDUsAreNeverKept is the differential test of the borrow rule:
// the same seeded faulty run once over a well-behaved network and once over
// one that poisons every PDU the moment its loan ends. Every member must
// process the same messages in the same order, apply the same decisions byte
// for byte, and leave for the same reasons.
func TestBorrowedPDUsAreNeverKept(t *testing.T) {
	clean, poisoned := runBorrowGroup(t, false), runBorrowGroup(t, true)

	// The run must have been worth comparing.
	if len(clean.left[3]) != 0 || clean.procs[3].Joining() {
		t.Fatalf("the rejoin did not complete: left=%v joining=%v", clean.left[3], clean.procs[3].Joining())
	}
	var recoveries, batches int
	for i, p := range clean.procs {
		recoveries += p.Stats.Recoveries
		batches += p.Stats.Batches
		if len(clean.processed[i]) < 300 {
			t.Fatalf("member %d processed only %d messages", i, len(clean.processed[i]))
		}
	}
	if recoveries == 0 || batches == 0 || clean.procs[0].View().AliveCount() != 5 {
		t.Fatalf("faults not exercised: %d recoveries, %d batches, view %v", recoveries, batches, clean.procs[0].View())
	}

	for i := range clean.processed {
		if !reflect.DeepEqual(clean.processed[i], poisoned.processed[i]) {
			t.Errorf("member %d processed a different log once lent PDUs were poisoned (%d vs %d messages)",
				i, len(clean.processed[i]), len(poisoned.processed[i]))
		}
		if a, b := clean.procs[i].Stats, poisoned.procs[i].Stats; a != b {
			t.Errorf("member %d counters differ:\n clean    %+v\n poisoned %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(clean.decisions, poisoned.decisions) {
		at := 0
		for at < len(clean.decisions) && at < len(poisoned.decisions) && clean.decisions[at] == poisoned.decisions[at] {
			at++
		}
		t.Errorf("decisions diverge at #%d of %d/%d: something kept a pointer into a lent PDU", at, len(clean.decisions), len(poisoned.decisions))
	}
	if !reflect.DeepEqual(clean.left, poisoned.left) {
		t.Errorf("leave reasons differ: %v vs %v", clean.left, poisoned.left)
	}
}

// TestEarlyRequestIsFoldedNotDropped: a member whose tick ran first reaches
// the next coordinator while that is still in the previous subrun. The report
// used to be thrown away and its sender counted silent — K such subruns in a
// row and a healthy member was declared crashed. It is held for the tick now.
func TestEarlyRequestIsFoldedNotDropped(t *testing.T) {
	// SelfExclusion off: the silence of the peers this test never ticks must
	// not make p1 leave.
	cfg := Config{N: 3, K: 2, R: 5}
	p, tp := newProc(t, 1, cfg)
	p.StartRound(0) // subrun 0, coordinated by p0
	p.StartRound(1)

	// p0 and p2 are already in subrun 1, which p1 coordinates; p1's tick is late.
	p.Recv(0, req(0, 1, mid.SeqVector{4, 0, 0}, mid.NewSeqVector(3), nil))
	p.Recv(2, req(2, 1, mid.SeqVector{3, 0, 0}, mid.NewSeqVector(3), nil))
	p.StartRound(2)
	p.StartRound(3)

	d := tp.lastDecision(t)
	if d.Subrun != 1 || d.Coord != 1 {
		t.Fatalf("decision of subrun %d by p%d, want subrun 1 by p1", d.Subrun, d.Coord)
	}
	if !reflect.DeepEqual(d.Covered, []bool{true, true, true}) || !d.FullGroup {
		t.Errorf("covered = %v (full group %v): the early reports were not folded", d.Covered, d.FullGroup)
	}
	if !reflect.DeepEqual(d.Attempts, []uint8{0, 0, 0}) {
		t.Errorf("attempts = %v: an early reporter was counted silent", d.Attempts)
	}
	if d.MaxProcessed[0] != 4 || d.MostUpdated[0] != 0 || d.CleanTo[0] != 0 {
		t.Errorf("max_processed[0] = %d from p%d, clean_to[0] = %d: want 4 from p0 and 0 (p1 has none)",
			d.MaxProcessed[0], d.MostUpdated[0], d.CleanTo[0])
	}

	// Early for a subrun this process turns out not to coordinate: dropped.
	p.Recv(0, req(0, 2, mid.SeqVector{9, 0, 0}, mid.NewSeqVector(3), nil))
	p.StartRound(4) // subrun 2 is p2's
	p.StartRound(5)
	if got := tp.lastDecision(t); got.Subrun != 1 {
		t.Errorf("p1 decided subrun %d, which p2 coordinates", got.Subrun)
	}
	// ... and it must not linger into the next subrun p1 does coordinate.
	for r := 6; r <= 9; r++ {
		p.StartRound(r) // subruns 3 (p0's) and 4 (p1's), nobody else reporting
	}
	if d := tp.lastDecision(t); d.Subrun != 4 || d.Covered[0] || d.MaxProcessed[0] != 4 {
		t.Errorf("subrun %d: covered[0]=%v max_processed[0]=%d — a stale early report was folded", d.Subrun, d.Covered[0], d.MaxProcessed[0])
	}
}
