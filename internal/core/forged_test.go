package core

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// forgedData lists PDUs member 0 can be sent by anyone who can reach its
// socket: each decodes cleanly, and each names a process that is not of the
// group — or, the last, is member 0's own next message arriving from a peer.
// The first is the datagram that used to kill a member — a negative ProcID
// in a label passed Validate and indexed the processed vector at -2.
func forgedData() []wire.PDU {
	m := func(id mid.MID, deps ...mid.MID) causal.Message {
		return causal.Message{ID: id, Deps: deps, Payload: []byte("forged")}
	}
	return []wire.PDU{
		&wire.Data{Msg: m(mid.MID{Proc: 1, Seq: 1}, mid.MID{Proc: -2, Seq: 1})},
		&wire.Data{Msg: m(mid.MID{Proc: -2, Seq: 2})},
		&wire.Data{Msg: m(mid.MID{Proc: 1, Seq: 1}, mid.MID{Proc: 3, Seq: 1})},
		&wire.Data{Msg: m(mid.MID{Proc: 7, Seq: 1})},
		&wire.Data{Msg: m(mid.MID{Proc: 7, Seq: 2})},
		&wire.DataBatch{Msgs: []causal.Message{
			m(mid.MID{Proc: 1, Seq: 1}, mid.MID{Proc: -1, Seq: 9}),
			m(mid.MID{Proc: -1, Seq: 2}),
		}},
		&wire.Retransmit{Responder: 1, Msgs: []*causal.Message{
			{ID: mid.MID{Proc: 2, Seq: 1}, Deps: mid.DepList{{Proc: -2, Seq: 1}}},
		}},
		&wire.Request{Sender: -1, LastProcessed: mid.NewSeqVector(3), Waiting: mid.NewSeqVector(3)},
		&wire.Request{Sender: 3, LastProcessed: mid.NewSeqVector(3), Waiting: mid.NewSeqVector(3)},
		&wire.Data{Msg: m(mid.MID{Proc: 0, Seq: 1})},
	}
}

// TestForgedProcIDsAreDroppedAndCounted drives every forged PDU the way a
// socket would — Marshal, Unmarshal, Recv — into a coordinator mid-subrun,
// then lets it decide. Nothing may panic, nothing forged may be processed or
// parked, and each drop is counted.
func TestForgedProcIDsAreDroppedAndCounted(t *testing.T) {
	p, _ := flushProc(t, 0, Config{N: 3, K: 2, R: 5})
	p.StartRound(0) // p0 coordinates subrun 0: forged requests reach the table's guard
	dropped := 0
	for _, pdu := range forgedData() {
		buf, err := wire.Marshal(pdu)
		if err != nil {
			t.Fatalf("%v: %v", pdu.Kind(), err)
		}
		decoded, err := wire.Unmarshal(buf)
		if err != nil {
			t.Fatalf("%v: a forged ProcID is not a decode error (any int32 decodes): %v", pdu.Kind(), err)
		}
		p.Recv(1, decoded)
		switch v := pdu.(type) {
		case *wire.DataBatch:
			dropped += len(v.Msgs)
		default:
			dropped++
		}
	}
	p.StartRound(1) // computeDecision walks the request table
	if got := p.Stats.Malformed; got != dropped {
		t.Errorf("Stats.Malformed = %d, want %d", got, dropped)
	}
	if p.Stats.ProcessedN != 0 || p.WaitingLen() != 0 {
		t.Errorf("forged messages entered the protocol: processed %d, waiting %d", p.Stats.ProcessedN, p.WaitingLen())
	}
	if !p.Running() {
		t.Error("the member left the group over forged datagrams")
	}
}

// FuzzRecv is the protocol-boundary twin of wire's FuzzUnmarshal: whatever
// bytes decode, from whatever claimed source, a member must absorb without
// panicking — before and after it holds state those bytes could index.
// Runs its seed corpus under plain `go test`; extend with
// `go test -fuzz=FuzzRecv ./internal/core`.
func FuzzRecv(f *testing.F) {
	for _, pdu := range forgedData() {
		buf, err := wire.Marshal(pdu)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int32(1), buf)
	}
	f.Add(int32(-3), []byte{byte(wire.KindJoin), 0xff, 0xff, 0xff, 0xfe})
	for _, pdu := range forgedSubruns() {
		buf, err := wire.Marshal(pdu)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int32(1), buf)
	}
	f.Fuzz(func(t *testing.T, src int32, data []byte) {
		pdu, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		p, err := NewProcess(0, Config{N: 3, K: 2, R: 5, SelfExclusion: true}, &captureTP{}, Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		p.StartRound(0)
		if _, err := p.Submit([]byte("own"), nil); err != nil {
			t.Fatal(err)
		}
		p.Recv(mid.ProcID(src), pdu)
		p.Advance()
		p.StartRound(1)
		p.StartRound(2)
		p.Recv(mid.ProcID(src), pdu)
		p.Advance()
		p.StartRound(3)
	})
}
