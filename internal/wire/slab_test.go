package wire

import (
	"bytes"
	"runtime"
	"testing"

	"urcgc/internal/history"
	"urcgc/internal/mid"
)

// TestBatchSlabOwnership pins the ownership rules of the per-frame slab. The
// decoded batch must not alias the receive buffer (the reader reuses it for
// the next datagram the moment Unmarshal returns); fields carved side by side
// must not reach each other through append; and — because the history retains
// the messages one by one while the slab is one allocation — a message must
// stay intact after the history has cleaned the part of the frame before it,
// across a garbage collection.
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
}
