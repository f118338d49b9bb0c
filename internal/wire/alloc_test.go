package wire

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// allocCases lists one representative PDU per kind, shaped like paper-scale
// traffic (n=40 control vectors, 64-byte payloads).
func allocCases() map[string]PDU {
	return map[string]PDU{
		"Data": &Data{Msg: causal.Message{
			ID:      mid.MID{Proc: 3, Seq: 17},
			Deps:    mid.DepList{{Proc: 0, Seq: 4}, {Proc: 2, Seq: 9}},
			Payload: make([]byte, 64),
		}},
		"Request": &Request{
			Sender: 2, Subrun: 7,
			LastProcessed: mid.NewSeqVector(40),
			Waiting:       mid.NewSeqVector(40),
			Prev:          mkDecision(40),
		},
		"Decision": mkDecision(40),
		"Recover": &Recover{Requester: 4, Wants: []WantRange{
			{Proc: 0, From: 3, To: 9}, {Proc: 2, From: 1, To: 1},
		}},
		"Retransmit": &Retransmit{Responder: 1, Msgs: []*causal.Message{
			{ID: mid.MID{Proc: 0, Seq: 1}, Payload: make([]byte, 64)},
			{ID: mid.MID{Proc: 0, Seq: 2}, Deps: mid.DepList{{Proc: 1, Seq: 1}}},
		}},
		"DataBatch": &DataBatch{Msgs: []causal.Message{
			{ID: mid.MID{Proc: 3, Seq: 17}, Deps: mid.DepList{{Proc: 0, Seq: 4}}, Payload: make([]byte, 64)},
			{ID: mid.MID{Proc: 3, Seq: 18}, Payload: make([]byte, 64)},
		}},
	}
}

// TestMarshalAppendAllocFree guards the broadcast hot path: encoding into a
// buffer with sufficient capacity must never allocate, for any PDU kind.
func TestMarshalAppendAllocFree(t *testing.T) {
	for name, p := range allocCases() {
		buf := make([]byte, 0, p.EncodedSize())
		got := testing.AllocsPerRun(200, func() {
			var err error
			buf, err = MarshalAppend(buf[:0], p)
			if err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: MarshalAppend into presized buffer allocates %.1f/op, want 0", name, got)
		}
	}
}

// TestMarshalAllocBudget pins Marshal to its single buffer allocation.
func TestMarshalAllocBudget(t *testing.T) {
	for name, p := range allocCases() {
		p := p
		got := testing.AllocsPerRun(200, func() {
			if _, err := Marshal(p); err != nil {
				t.Fatal(err)
			}
		})
		if got > 1 {
			t.Errorf("%s: Marshal allocates %.1f/op, want <= 1 (the buffer)", name, got)
		}
	}
}

// fullBatch is the batch the saturated runtimes actually ship: 32 messages of
// two labels and 64 payload bytes.
func fullBatch() *DataBatch {
	b := &DataBatch{Msgs: make([]causal.Message, 32)}
	for i := range b.Msgs {
		b.Msgs[i] = causal.Message{
			ID:      mid.MID{Proc: 1, Seq: mid.Seq(i + 1)},
			Deps:    mid.DepList{{Proc: 0, Seq: 4}, {Proc: 2, Seq: 9}},
			Payload: make([]byte, 64),
		}
	}
	return b
}

// TestUnmarshalAllocBudget pins the decode path to its allocation counts so
// the per-frame slab, the single vector arena and the list's message arena
// cannot silently regress. Plain Unmarshal allocates what the PDU retains:
// its struct, one header array and one slab for every label list and payload
// of the frame, one arena for every vector. Through a FreeList a stream of
// data frames costs a share of a chunk per frame: the messages are carved from
// the list's arena and the DataBatch and Retransmit records come back with
// Put, as the runtime's loop hands them back after Recv.
func TestUnmarshalAllocBudget(t *testing.T) {
	budgets := map[string]float64{
		"Data":       2, // struct + slab
		"Request":    3, // struct + prev decision struct + the one arena they share
		"Decision":   2, // struct + arena
		"Recover":    2, // struct + wants
		"Retransmit": 5, // struct + msgs + header array + slab (4; 5 under the race detector)
		"DataBatch":  3, // struct + header array + slab
	}
	cases := allocCases()
	// The budget does not grow with the message count.
	cases["DataBatch32"], budgets["DataBatch32"] = fullBatch(), 3
	frames := map[string][]byte{}
	for name, p := range cases {
		buf, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		frames[name] = buf
		got := testing.AllocsPerRun(200, func() {
			if _, err := Unmarshal(buf); err != nil {
				t.Fatal(err)
			}
		})
		if got > budgets[name] {
			t.Errorf("%s: Unmarshal allocates %.1f/op, budget %.0f", name, got, budgets[name])
		}
	}

	const stream, perFrame = 256, 0.1
	for _, name := range []string{"Data", "DataBatch32", "Retransmit"} {
		f, buf := NewFreeList(), frames[name]
		got := testing.AllocsPerRun(4, func() {
			for i := 0; i < stream; i++ {
				p, err := f.Unmarshal(buf)
				if err != nil {
					t.Fatal(err)
				}
				f.Put(p)
			}
		}) / stream
		t.Logf("%s: %.3f objects per frame through a FreeList", name, got)
		if got > perFrame {
			t.Errorf("%s: a stream through a FreeList allocates %.3f objects per frame, budget %.1f", name, got, perFrame)
		}
	}
}

// TestPooledRoundTripAllocFree guards the full pooled hot path — GetBuf,
// MarshalAppend, PutBuf — at zero allocations in steady state.
func TestPooledRoundTripAllocFree(t *testing.T) {
	d := mkDecision(40)
	// Warm the pool.
	PutBuf(GetBuf(d.EncodedSize()))
	got := testing.AllocsPerRun(200, func() {
		buf, err := MarshalAppend(GetBuf(d.EncodedSize()), d)
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(buf)
	})
	if got != 0 {
		t.Errorf("pooled marshal cycle allocates %.1f/op, want 0", got)
	}
}

// The codec benchmarks run the inputs the budgets above pin: the n=40
// decision, the two-label 64-byte Data message and the full 32-message batch.

// BenchmarkWireMarshalDecision round-trips an n=40 decision through Marshal
// and Unmarshal — the dominant control-plane codec cost per round.
func BenchmarkWireMarshalDecision(b *testing.B) {
	d := mkDecision(40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := Marshal(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireMarshalAppendDecision measures the pure encode hot path:
// MarshalAppend into a reused buffer, which the broadcast fan-out runs once
// per PDU.
func BenchmarkWireMarshalAppendDecision(b *testing.B) {
	d := mkDecision(40)
	buf := make([]byte, 0, d.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = MarshalAppend(buf[:0], d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireUnmarshalData measures decoding a Data frame with the plain,
// allocate-fresh decoder: what a frame costs a holder that keeps it.
func BenchmarkWireUnmarshalData(b *testing.B) {
	buf, err := Marshal(allocCases()["Data"])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDecodeStream decodes one frame per op through one FreeList and hands
// the record back, as a runtime loop does after Recv: the per-datagram cost
// of the live readers.
func benchDecodeStream(b *testing.B, p PDU) {
	buf, err := Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	f := NewFreeList()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdu, err := f.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		f.Put(pdu)
	}
}

// BenchmarkWireDecodeStreamData is a stream of singleton Data frames, what an
// unbatched group's receivers decode.
func BenchmarkWireDecodeStreamData(b *testing.B) { benchDecodeStream(b, allocCases()["Data"]) }

// BenchmarkWireDecodeStreamBatch32 is a stream of full 32-message DataBatch
// frames, what a saturated group's receivers decode.
func BenchmarkWireDecodeStreamBatch32(b *testing.B) { benchDecodeStream(b, fullBatch()) }
