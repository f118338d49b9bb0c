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

// TestUnmarshalAllocBudget pins the decode path to its allocation counts so
// the per-frame slab and the single vector arena cannot silently regress.
// What a decoded PDU costs is what it retains: its struct, one slab for
// every label list and payload of the frame, one arena for every vector.
func TestUnmarshalAllocBudget(t *testing.T) {
	budgets := map[string]float64{
		"Data":       2, // struct + slab
		"Request":    3, // struct + prev decision struct + the one arena they share
		"Decision":   2, // struct + arena
		"Recover":    2, // struct + wants
		"Retransmit": 5, // struct + msgs + 2 msg structs + slab
		"DataBatch":  3, // struct + header arena + slab
	}
	cases := allocCases()
	// The batch the saturated runtimes actually ship: the budget does not
	// grow with the message count.
	full := &DataBatch{Msgs: make([]causal.Message, 32)}
	for i := range full.Msgs {
		full.Msgs[i] = causal.Message{
			ID:      mid.MID{Proc: 1, Seq: mid.Seq(i + 1)},
			Deps:    mid.DepList{{Proc: 0, Seq: 4}, {Proc: 2, Seq: 9}},
			Payload: make([]byte, 64),
		}
	}
	cases["DataBatch32"], budgets["DataBatch32"] = full, 3
	for name, p := range cases {
		buf, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := Unmarshal(buf); err != nil {
				t.Fatal(err)
			}
		})
		if got > budgets[name] {
			t.Errorf("%s: Unmarshal allocates %.1f/op, budget %.0f", name, got, budgets[name])
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
