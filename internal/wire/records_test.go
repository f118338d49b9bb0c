package wire

import (
	"bytes"
	"testing"

	"urcgc/internal/mid"
)

// controlFrames is a stream of encoded control PDUs whose geometry keeps
// changing — the worst a free list can be fed: group sizes 3, 40 and 0,
// requests with and without an embedded decision, bare decisions.
func controlFrames(t *testing.T) [][]byte {
	t.Helper()
	reqOf := func(n int, prev *Decision, join bool) *Request {
		r := &Request{Sender: 1, Subrun: int64(n), LastProcessed: mid.NewSeqVector(n), Waiting: mid.NewSeqVector(n), Prev: prev, Join: join}
		for i := 0; i < n; i++ {
			r.LastProcessed[i], r.Waiting[i] = mid.Seq(7*i+1), mid.Seq(i%3)
		}
		return r
	}
	pdus := []PDU{
		reqOf(3, mkDecision(3), false), reqOf(3, mkDecision(3), true), reqOf(3, nil, false),
		mkDecision(3), reqOf(40, mkDecision(40), false), mkDecision(40), mkDecision(3),
		reqOf(3, mkDecision(3), false), reqOf(0, nil, false), reqOf(40, nil, true), reqOf(40, mkDecision(40), false),
		&Recover{Requester: 2, Wants: []WantRange{{Proc: 0, From: 1, To: 2}}}, &Join{Joiner: 2},
	}
	frames := make([][]byte, len(pdus))
	for i, p := range pdus {
		buf, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = buf
	}
	return frames
}

// TestFreeListDecodesLikeUnmarshal: whatever record a decode lands in — fresh,
// recycled with the frame's geometry, recycled with another, poisoned on
// release — the PDU is the one plain Unmarshal returns.
func TestFreeListDecodesLikeUnmarshal(t *testing.T) {
	for _, poison := range []bool{false, true} {
		f := NewFreeList()
		f.Poison = poison
		for round := 0; round < 3; round++ {
			for i, frame := range controlFrames(t) {
				p, err := f.Unmarshal(frame)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				out, err := Marshal(p)
				if err != nil || !bytes.Equal(out, frame) {
					t.Fatalf("poison=%v round %d frame %d (%v): decoded through the free list re-encodes to\n %x (%v), want\n %x", poison, round, i, p.Kind(), out, err, frame)
				}
				f.Put(p)
			}
		}
	}
}

// TestFreeListRejectsLikeUnmarshal: a truncated frame fails the same way, and
// the half-written record is simply not handed out.
func TestFreeListRejectsLikeUnmarshal(t *testing.T) {
	f := NewFreeList()
	for _, frame := range controlFrames(t) {
		p, err := f.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		f.Put(p)
		for cut := 0; cut < len(frame); cut++ {
			if _, err := f.Unmarshal(frame[:cut]); err == nil {
				t.Fatalf("frame truncated to %d of %d bytes decoded", cut, len(frame))
			}
		}
	}
}

// TestFreeListSteadyStateAllocFree is the point of the list: a loop that sees
// the same control traffic subrun after subrun decodes it into the records it
// handed back, and allocates nothing. An empty list costs exactly what plain
// Unmarshal costs (TestUnmarshalAllocBudget).
func TestFreeListSteadyStateAllocFree(t *testing.T) {
	req, err := Marshal(allocCases()["Request"])
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Marshal(mkDecision(40))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFreeList()
	cycle := func() {
		for _, frame := range [][]byte{req, dec, req} {
			p, err := f.Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			f.Put(p)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("decoding into recycled records allocates %.1f objects per cycle, want 0", got)
	}
}

// TestFreeListIsLeakyNotBlocking: a list nobody takes from drops what it
// cannot hold, a nil list takes nothing, a Data record (which the protocol
// keeps as the message) never enters one, and a DataBatch or Retransmit
// record enters without its messages.
func TestFreeListIsLeakyNotBlocking(t *testing.T) {
	f := NewFreeList()
	cases := allocCases()
	for i := 0; i < 4*freeListDepth; i++ {
		f.Put(mkDecision(3))
		f.Put(&Request{})
		f.Put(Clone(cases["DataBatch"]))
		f.Put(Clone(cases["Retransmit"]))
	}
	for _, held := range []int{len(f.decs), len(f.reqs), len(f.batches), len(f.resends)} {
		if held != freeListDepth {
			t.Errorf("list holds %d decisions, %d requests, %d batches and %d retransmits, want %d of each",
				len(f.decs), len(f.reqs), len(f.batches), len(f.resends), freeListDepth)
			break
		}
	}
	if b := <-f.batches; b.Msgs != nil {
		t.Errorf("a parked DataBatch still references %d messages", len(b.Msgs))
	}
	if r := <-f.resends; len(r.Msgs) != 0 || r.Msgs[:cap(r.Msgs)][0] != nil {
		t.Errorf("a parked Retransmit still references its messages")
	}
	f.Put(cases["Data"])
	(*FreeList)(nil).Put(mkDecision(3))
}

// TestCloneOutlivesTheLoan: a clone must survive everything the lender may do
// to the original once the call is over — here, the worst: Poison.
func TestCloneOutlivesTheLoan(t *testing.T) {
	cases := allocCases()
	cases["Join"] = &Join{Joiner: 2}
	cases["JoinState"] = &JoinState{Sponsor: 1, Resume: 4, Stable: mid.SeqVector{1, 2, 3}, Processed: mid.SeqVector{4, 5, 6}, Prev: mkDecision(3)}
	for name, p := range cases {
		want, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		cp := Clone(p)
		switch v := p.(type) { // the lender rewrites the decision it lent, too
		case *Request:
			Poison(v.Prev)
		case *JoinState:
			Poison(v.Prev)
			Poison(&Request{LastProcessed: v.Stable, Waiting: v.Processed})
		}
		Poison(p)
		got, err := Marshal(cp)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the clone changed when the original was overwritten (%v)", name, err)
		}
	}
}
