package transport

import (
	"bytes"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
	"urcgc/internal/wire"
)

func fragSetup(t *testing.T, n, mtu int, inj faultrt.Injector) (*sim.Engine, *simnet.Network, []*Entity, []*sink) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := simnet.New(eng, n, inj)
	entities := make([]*Entity, n)
	sinks := make([]*sink, n)
	for i := 0; i < n; i++ {
		sinks[i] = &sink{}
		e, err := NewEntity(mid.ProcID(i), nw, eng, Config{MTU: mtu}, sinks[i])
		if err != nil {
			t.Fatal(err)
		}
		entities[i] = e
	}
	return eng, nw, entities, sinks
}

func bigData(payload int) *wire.Data {
	return &wire.Data{Msg: causal.Message{
		ID:      mid.MID{Proc: 0, Seq: 1},
		Payload: bytes.Repeat([]byte{0xab}, payload),
	}}
}

func TestOversizedPDUIsFragmentedAndReassembled(t *testing.T) {
	eng, nw, es, sinks := fragSetup(t, 2, 64, nil)
	d := bigData(300) // encodes to ~313 bytes >> 64
	es[0].DataRq([]mid.ProcID{0, 1}, 1, nil, d)
	eng.Run()
	if len(sinks[1].got) != 1 {
		t.Fatalf("delivered %d PDUs", len(sinks[1].got))
	}
	got, ok := sinks[1].got[0].(*wire.Data)
	if !ok || !bytes.Equal(got.Msg.Payload, d.Msg.Payload) {
		t.Fatal("reassembled PDU corrupted")
	}
	if es[0].Stats.Fragments < 5 {
		t.Errorf("Fragments = %d, want several", es[0].Stats.Fragments)
	}
	if es[1].Stats.Reassembled != 1 {
		t.Errorf("Reassembled = %d", es[1].Stats.Reassembled)
	}
	// Every fragment fit the MTU.
	if frags := nw.Load().Counts[KindFragment]; frags != es[0].Stats.Fragments {
		t.Errorf("network saw %d fragments, entity sent %d", frags, es[0].Stats.Fragments)
	}
	if mean := nw.Load().MeanSize(KindFragment); mean > 64 {
		t.Errorf("mean fragment size %.0f exceeds MTU", mean)
	}
}

func TestSmallPDUNotFragmented(t *testing.T) {
	eng, _, es, sinks := fragSetup(t, 2, 576, nil)
	es[0].DataRq([]mid.ProcID{0, 1}, 1, nil, bigData(10))
	eng.Run()
	if es[0].Stats.Fragments != 0 {
		t.Errorf("Fragments = %d", es[0].Stats.Fragments)
	}
	if len(sinks[1].got) != 1 {
		t.Errorf("delivered %d", len(sinks[1].got))
	}
}

func TestLostFragmentLosesWholePDU(t *testing.T) {
	// Drop one packet mid-burst: the PDU must not be delivered (and must
	// not crash the reassembler) — an ordinary omission for the layer above.
	eng, _, es, sinks := fragSetup(t, 2, 64, &faultrt.DropEvery{N: 3, Side: faultrt.AtSend})
	es[0].DataRq([]mid.ProcID{0, 1}, 1, nil, bigData(300))
	eng.Run()
	if len(sinks[1].got) != 0 {
		t.Errorf("delivered %d PDUs despite fragment loss", len(sinks[1].got))
	}
	if es[1].Stats.Reassembled != 0 {
		t.Error("partial reassembly claimed completion")
	}
}

func TestDuplicateFragmentIgnored(t *testing.T) {
	_, _, es, sinks := fragSetup(t, 2, 64, nil)
	f := &Fragment{Src: 0, Seq: 1, Index: 0, Total: 2, Chunk: []byte{1, 2}}
	es[1].Recv(0, f)
	es[1].Recv(0, f) // duplicate
	if len(sinks[1].got) != 0 {
		t.Error("half-reassembled PDU delivered")
	}
	// Inconsistent total is ignored too.
	es[1].Recv(0, &Fragment{Src: 0, Seq: 1, Index: 1, Total: 3, Chunk: []byte{3}})
	if len(sinks[1].got) != 0 {
		t.Error("inconsistent reassembly delivered")
	}
	// Bad index bounds never panic.
	es[1].Recv(0, &Fragment{Src: 0, Seq: 2, Index: 5, Total: 2, Chunk: []byte{9}})
	es[1].Recv(0, &Fragment{Src: 0, Seq: 3, Index: 0, Total: 0})
}

func TestCorruptedReassemblyDropped(t *testing.T) {
	_, _, es, sinks := fragSetup(t, 2, 64, nil)
	es[1].Recv(0, &Fragment{Src: 0, Seq: 9, Index: 0, Total: 1, Chunk: []byte{0xff, 0xff}})
	if len(sinks[1].got) != 0 {
		t.Error("undecodable reassembly delivered")
	}
}

func TestFragmentSizeAccounting(t *testing.T) {
	f := &Fragment{Chunk: make([]byte, 48)}
	if f.EncodedSize() != fragmentOverhead+48 {
		t.Errorf("EncodedSize = %d", f.EncodedSize())
	}
}
