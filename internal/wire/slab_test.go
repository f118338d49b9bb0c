package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/history"
	"urcgc/internal/mid"
)

// TestBatchSlabOwnership pins the ownership rules of the per-frame slab and
// of the arena a FreeList carves messages from. The decoded messages must not
// alias the receive buffer (the reader reuses it for the next datagram the
// moment Unmarshal returns); fields carved side by side — in one frame, or in
// consecutive frames sharing a chunk — must not reach each other through
// append; and because the history retains the messages one by one while their
// memory is shared, a message must stay intact after its neighbours were
// dropped, across a garbage collection.
func TestBatchSlabOwnership(t *testing.T) {
	in := mkBatch(8)
	buf, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := p.(*DataBatch)
	for i := range buf {
		buf[i] = 0xA5 // the next datagram lands in the same read buffer
	}
	check := func(when string, from int) {
		t.Helper()
		for i := from; i < len(in.Msgs); i++ {
			if out.Msgs[i].ID != in.Msgs[i].ID || !depsEqual(out.Msgs[i].Deps, in.Msgs[i].Deps) ||
				!bytes.Equal(out.Msgs[i].Payload, in.Msgs[i].Payload) {
				t.Fatalf("%s: message %d is %+v, want %+v", when, i, out.Msgs[i], in.Msgs[i])
			}
		}
	}
	check("after the read buffer was overwritten", 0)

	// Appending to one carved field must reallocate, never run into the next.
	_ = append(out.Msgs[3].Payload, "overrun-overrun-overrun"...)
	_ = append(out.Msgs[3].Deps, mid.MID{Proc: 9, Seq: 9}, mid.MID{Proc: 9, Seq: 9})
	check("after appends to message 3's fields", 0)

	// The history keeps the messages individually and cleans a prefix.
	h := history.New(3)
	if err := h.InstallBases(mid.SeqVector{0, 0, 9}); err != nil { // mkBatch's sender 2 starts at seq 10
		t.Fatal(err)
	}
	for i := range out.Msgs {
		if err := h.Store(&out.Msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if released := h.CleanTo(mid.SeqVector{0, 0, 14}); released != 5 {
		t.Fatalf("CleanTo released %d messages, want the frame's first 5", released)
	}
	out.Msgs = nil // only the history's pointers into the frame remain
	runtime.GC()
	for i := 5; i < len(in.Msgs); i++ {
		m, err := h.Get(2, mid.Seq(10+i))
		if err != nil || m == nil {
			t.Fatalf("message %d not retained: %v", i, err)
		}
		if !depsEqual(m.Deps, in.Msgs[i].Deps) || !bytes.Equal(m.Payload, in.Msgs[i].Payload) {
			t.Fatalf("after cleaning the frame's prefix: message %d is %+v, want %+v", i, m, in.Msgs[i])
		}
	}

	t.Run("arena_stream", testArenaStreamOwnership)
}

// testArenaStreamOwnership decodes 200 mixed frames — Data, DataBatch and
// Retransmit of random shapes between Requests and Decisions — through one
// poisoned FreeList out of one reused read buffer, handing every record back
// with Put as the runtime's loop does, and then checks every message.
func testArenaStreamOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	seq := mid.Seq(0)
	msg := func() causal.Message {
		seq++
		m := causal.Message{ID: mid.MID{Proc: 1, Seq: seq}, Payload: []byte(fmt.Sprintf("p%d-%s", seq, bytes.Repeat([]byte{'x'}, rng.Intn(90))))}
		for k := rng.Intn(4); k > 0; k-- {
			m.Deps = append(m.Deps, mid.MID{Proc: mid.ProcID(2 + k), Seq: mid.Seq(rng.Intn(1000) + 1)})
		}
		return m
	}
	type kept struct {
		got, want *causal.Message
		deps      mid.DepList // appended to got.Deps right after its frame
		payload   []byte      // appended to got.Payload right after its frame
	}
	var all []kept
	f := NewFreeList()
	f.Poison = true
	read := make([]byte, 0, 64<<10)
	for frame := 0; frame < 200; frame++ {
		var pdu PDU
		var want []causal.Message
		switch frame % 5 {
		case 0:
			want = []causal.Message{msg()}
			pdu = &Data{Msg: want[0]}
		case 1, 3:
			want = make([]causal.Message, 1+rng.Intn(40))
			for i := range want {
				want[i] = msg()
			}
			pdu = &DataBatch{Msgs: want}
		case 2:
			want = make([]causal.Message, 1+rng.Intn(6))
			r := &Retransmit{Responder: 2}
			for i := range want {
				want[i] = msg()
				r.Msgs = append(r.Msgs, &want[i])
			}
			pdu = r
		case 4:
			if frame%2 == 0 {
				pdu = mkDecision(5)
			} else {
				pdu = &Request{Sender: 1, Subrun: 3, LastProcessed: mid.NewSeqVector(5), Waiting: mid.NewSeqVector(5), Prev: mkDecision(5)}
			}
		}
		var err error
		if read, err = MarshalAppend(read[:0], pdu); err != nil {
			t.Fatal(err)
		}
		p, err := f.Unmarshal(read)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		var got []*causal.Message
		switch v := p.(type) {
		case *Data:
			got = []*causal.Message{&v.Msg}
		case *DataBatch:
			for i := range v.Msgs {
				got = append(got, &v.Msgs[i])
			}
		case *Retransmit:
			got = append(got, v.Msgs...)
		}
		for i := range read {
			read[i] = 0xA5 // the next datagram lands in the same read buffer
		}
		for i, m := range got {
			all = append(all, kept{
				got: m, want: &want[i],
				deps:    append(m.Deps, mid.MID{Proc: 9, Seq: 9}),
				payload: append(m.Payload, "overrun"...),
			})
		}
		f.Put(p) // the loop hands every record back after Recv
	}

	intact := func(when string, k kept) {
		t.Helper()
		if k.got.ID != k.want.ID || !depsEqual(k.got.Deps, k.want.Deps) || !bytes.Equal(k.got.Payload, k.want.Payload) {
			t.Fatalf("%s: message %v is %+v, want %+v", when, k.want.ID, *k.got, *k.want)
		}
		if !depsEqual(k.deps, append(k.want.Deps.Clone(), mid.MID{Proc: 9, Seq: 9})) ||
			!bytes.Equal(k.payload, append(bytes.Clone(k.want.Payload), "overrun"...)) {
			t.Fatalf("%s: what was appended to message %v was overwritten by a later frame", when, k.want.ID)
		}
	}
	for _, k := range all {
		intact("after the stream", k)
	}
	for i := range all {
		if i%2 == 1 {
			all[i] = kept{}
		}
	}
	runtime.GC()
	for i := 0; i < len(all); i += 2 {
		intact("after dropping every other message", all[i])
	}
}
