package transport

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
	"urcgc/internal/wire"
)

type sink struct {
	got []wire.PDU
	src []mid.ProcID
}

func (s *sink) Recv(src mid.ProcID, pdu wire.PDU) {
	s.got = append(s.got, pdu)
	s.src = append(s.src, src)
}

func data(seq mid.Seq) *wire.Data {
	return &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 0, Seq: seq}}}
}

func setup(t *testing.T, n int, inj faultrt.Injector) (*sim.Engine, *simnet.Network, []*Entity, []*sink) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := simnet.New(eng, n, inj)
	entities := make([]*Entity, n)
	sinks := make([]*sink, n)
	for i := 0; i < n; i++ {
		sinks[i] = &sink{}
		e, err := NewEntity(mid.ProcID(i), nw, eng, Config{}, sinks[i])
		if err != nil {
			t.Fatal(err)
		}
		entities[i] = e
	}
	return eng, nw, entities, sinks
}

func TestH1IsPlainDatagram(t *testing.T) {
	eng, nw, es, sinks := setup(t, 3, nil)
	es[0].DataRq([]mid.ProcID{0, 1, 2}, 1, nil, data(1))
	eng.Run()
	for i := 1; i < 3; i++ {
		if len(sinks[i].got) != 1 {
			t.Errorf("dst %d got %d PDUs", i, len(sinks[i].got))
		}
	}
	// No ack traffic at h=1.
	if nw.Load().Counts[KindAck] != 0 {
		t.Errorf("acks = %d, want 0", nw.Load().Counts[KindAck])
	}
	if es[0].Stats.Retries != 0 {
		t.Error("no retries at h=1")
	}
}

func TestHNRetransmitsUntilAcked(t *testing.T) {
	// Drop the first two frames; with h=2 the entity must retry until both
	// destinations acked.
	eng, nw, es, sinks := setup(t, 3, &faultrt.DropEvery{N: 2, Side: faultrt.AtSend})
	es[0].DataRq([]mid.ProcID{0, 1, 2}, 2, nil, data(1))
	eng.Run()
	delivered := 0
	for i := 1; i < 3; i++ {
		delivered += len(sinks[i].got)
	}
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2 (both destinations, once each)", delivered)
	}
	if es[0].Stats.Retries == 0 {
		t.Error("expected retransmissions under loss")
	}
	if nw.Load().Counts[KindAck] == 0 {
		t.Error("expected ack traffic at h=2")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// With retransmission and no loss on the retry path, destinations see
	// the frame more than once but deliver it once.
	eng, _, es, sinks := setup(t, 2, nil)
	es[0].DataRq([]mid.ProcID{0, 1}, 2, nil, data(1))
	// Force one gratuitous retransmission by running only partway, then
	// re-sending manually.
	eng.Run()
	if len(sinks[1].got) != 1 {
		t.Fatalf("delivered %d, want 1", len(sinks[1].got))
	}
	// Simulate a duplicate arrival.
	before := es[1].Stats.Dups
	es[1].Recv(0, &Frame{Src: 0, Seq: 1, Inner: data(1)})
	if len(sinks[1].got) != 1 {
		t.Error("duplicate must be suppressed")
	}
	if es[1].Stats.Dups != before+1 {
		t.Errorf("Dups = %d, want %d", es[1].Stats.Dups, before+1)
	}
}

func TestPrimitiveNeverFails(t *testing.T) {
	// Destination 1 is crashed: h=2 can never be reached, but the request
	// must terminate after maxRetries without error and deliver to the
	// live destination.
	eng, _, es, sinks := setup(t, 3, faultrt.CrashAt{Proc: 1, At: 0})
	es[0].DataRq([]mid.ProcID{0, 1, 2}, 2, nil, data(1))
	eng.Run()
	if len(sinks[2].got) != 1 {
		t.Errorf("live destination got %d", len(sinks[2].got))
	}
	if es[0].Stats.Retries != maxRetries {
		t.Errorf("Retries = %d, want %d", es[0].Stats.Retries, maxRetries)
	}
	if len(es[0].pending) != 0 {
		t.Error("request should have been abandoned")
	}
}

func TestHClampedToDestinations(t *testing.T) {
	eng, _, es, sinks := setup(t, 2, nil)
	es[0].DataRq([]mid.ProcID{0, 1}, 99, nil, data(1))
	eng.Run()
	if len(sinks[1].got) != 1 {
		t.Errorf("delivered %d", len(sinks[1].got))
	}
	if len(es[0].pending) != 0 {
		t.Error("request should complete once the single destination acks")
	}
}

func TestVotingAcceptedAndIgnored(t *testing.T) {
	eng, _, es, sinks := setup(t, 2, nil)
	called := false
	es[0].DataRq([]mid.ProcID{0, 1}, 1, func(int) bool { called = true; return true }, data(1))
	eng.Run()
	if called {
		t.Error("urcgc semantics: the voting function is not used")
	}
	if len(sinks[1].got) != 1 {
		t.Error("data not delivered")
	}
}

func TestRawPDUPassthrough(t *testing.T) {
	_, _, es, sinks := setup(t, 2, nil)
	es[1].Recv(0, data(7))
	if len(sinks[1].got) != 1 {
		t.Error("raw PDU should pass through to the upper layer")
	}
}

func TestFrameSizes(t *testing.T) {
	f := &Frame{Inner: data(1)}
	if f.EncodedSize() != 1+4+4+1+data(1).EncodedSize() {
		t.Errorf("Frame size = %d", f.EncodedSize())
	}
	if (&Ack{}).EncodedSize() != 9 {
		t.Errorf("Ack size = %d", (&Ack{}).EncodedSize())
	}
}
