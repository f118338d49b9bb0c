package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

func roundTrip(t *testing.T, p PDU) PDU {
	t.Helper()
	buf, err := Marshal(p)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", p.Kind(), err)
	}
	if len(buf) != p.EncodedSize() {
		t.Fatalf("%v: encoded %d bytes, EncodedSize %d", p.Kind(), len(buf), p.EncodedSize())
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", p.Kind(), err)
	}
	return got
}

func TestDataRoundTrip(t *testing.T) {
	d := &Data{Msg: causal.Message{
		ID:      mid.MID{Proc: 3, Seq: 17},
		Deps:    mid.DepList{{Proc: 0, Seq: 4}, {Proc: 2, Seq: 9}},
		Payload: []byte("hello group"),
	}}
	got := roundTrip(t, d).(*Data)
	if !reflect.DeepEqual(d, got) {
		t.Errorf("round trip mismatch:\n  in  %+v\n  out %+v", d, got)
	}
}

func TestDataEmptyRoundTrip(t *testing.T) {
	d := &Data{Msg: causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}}
	got := roundTrip(t, d).(*Data)
	if !reflect.DeepEqual(d, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", d, got)
	}
}

func mkDecision(n int) *Decision {
	d := &Decision{
		Subrun:       42,
		Coord:        1,
		MaxProcessed: mid.NewSeqVector(n),
		MostUpdated:  make([]mid.ProcID, n),
		MinWaiting:   mid.NewSeqVector(n),
		CleanTo:      mid.NewSeqVector(n),
		Attempts:     make([]uint8, n),
		Alive:        make([]bool, n),
		Covered:      make([]bool, n),
		FullGroup:    true,
	}
	for i := 0; i < n; i++ {
		d.MaxProcessed[i] = mid.Seq(i * 3)
		d.MostUpdated[i] = mid.ProcID((i + 1) % n)
		d.MinWaiting[i] = mid.Seq(i)
		d.CleanTo[i] = mid.Seq(i * 2)
		d.Attempts[i] = uint8(i % 4)
		d.Alive[i] = i%3 != 0
		d.Covered[i] = i%2 == 0
	}
	d.MostUpdated[0] = mid.None
	return d
}

func TestDecisionRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 15, 40} {
		d := mkDecision(n)
		got := roundTrip(t, d).(*Decision)
		if !reflect.DeepEqual(d, got) {
			t.Errorf("n=%d round trip mismatch:\n  in  %+v\n  out %+v", n, d, got)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	r := &Request{
		Sender:        2,
		Subrun:        7,
		LastProcessed: mid.SeqVector{1, 2, 3},
		Waiting:       mid.SeqVector{0, 5, 0},
		Prev:          mkDecision(3),
	}
	got := roundTrip(t, r).(*Request)
	if !reflect.DeepEqual(r, got) {
		t.Errorf("round trip mismatch:\n  in  %+v\n  out %+v", r, got)
	}
}

func TestRequestNoPrevRoundTrip(t *testing.T) {
	r := &Request{
		Sender:        0,
		Subrun:        0,
		LastProcessed: mid.SeqVector{0, 0},
		Waiting:       mid.SeqVector{0, 0},
	}
	got := roundTrip(t, r).(*Request)
	if got.Prev != nil {
		t.Error("Prev should stay nil")
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", r, got)
	}
}

func TestRequestJoinFlagRoundTrip(t *testing.T) {
	// The join flag rides a bit in the byte that used to be hasPrev, so it
	// must survive every {Join, Prev} combination without changing the
	// encoded size.
	for _, join := range []bool{false, true} {
		for _, prev := range []*Decision{nil, mkDecision(3)} {
			r := &Request{
				Sender:        1,
				Subrun:        9,
				LastProcessed: mid.SeqVector{1, 2, 3},
				Waiting:       mid.SeqVector{0, 5, 0},
				Prev:          prev,
				Join:          join,
			}
			plain := &Request{
				Sender: r.Sender, Subrun: r.Subrun,
				LastProcessed: r.LastProcessed, Waiting: r.Waiting, Prev: r.Prev,
			}
			if r.EncodedSize() != plain.EncodedSize() {
				t.Fatalf("join=%v changed the encoded size: %d vs %d",
					join, r.EncodedSize(), plain.EncodedSize())
			}
			got := roundTrip(t, r).(*Request)
			if !reflect.DeepEqual(r, got) {
				t.Errorf("join=%v prev=%v round trip mismatch:\n  in  %+v\n  out %+v",
					join, prev != nil, r, got)
			}
		}
	}
}

func TestJoinRoundTrip(t *testing.T) {
	j := &Join{Joiner: 6}
	got := roundTrip(t, j).(*Join)
	if !reflect.DeepEqual(j, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", j, got)
	}
}

func TestJoinStateRoundTrip(t *testing.T) {
	for _, prev := range []*Decision{nil, mkDecision(4)} {
		js := &JoinState{
			Sponsor:   2,
			Resume:    17,
			Stable:    mid.SeqVector{4, 3, 9, 1},
			Processed: mid.SeqVector{6, 3, 12, 2},
			Prev:      prev,
		}
		got := roundTrip(t, js).(*JoinState)
		if !reflect.DeepEqual(js, got) {
			t.Errorf("prev=%v round trip mismatch:\n  in  %+v\n  out %+v", prev != nil, js, got)
		}
	}
}

func TestJoinStateVectorMismatchRejected(t *testing.T) {
	js := &JoinState{Sponsor: 0, Stable: mid.SeqVector{1}, Processed: mid.SeqVector{1, 2}}
	if _, err := Marshal(js); err == nil {
		t.Error("mismatched vector lengths must be rejected")
	}
}

func TestRetransmitCompactedRoundTrip(t *testing.T) {
	cases := []*Retransmit{
		// Compacted alongside recovered bytes.
		{
			Responder: 1,
			Msgs:      []*causal.Message{{ID: mid.MID{Proc: 0, Seq: 5}, Payload: []byte("kept")}},
			Compacted: []WantRange{{Proc: 0, From: 1, To: 4}},
		},
		// Everything wanted was already purged: no messages at all.
		{
			Responder: 2,
			Compacted: []WantRange{{Proc: 0, From: 1, To: 9}, {Proc: 3, From: 2, To: 2}},
		},
	}
	for _, rt := range cases {
		got := roundTrip(t, rt).(*Retransmit)
		if !reflect.DeepEqual(rt, got) {
			t.Errorf("round trip mismatch:\n  in  %+v\n  out %+v", rt, got)
		}
	}
}

func TestRequestVectorMismatchRejected(t *testing.T) {
	r := &Request{LastProcessed: mid.SeqVector{1}, Waiting: mid.SeqVector{1, 2}}
	if _, err := Marshal(r); err == nil {
		t.Error("mismatched vector lengths must be rejected")
	}
}

func TestDecisionFieldMismatchRejected(t *testing.T) {
	d := mkDecision(3)
	d.Attempts = d.Attempts[:2]
	if _, err := Marshal(d); err == nil {
		t.Error("mismatched decision fields must be rejected")
	}
}

func TestRecoverRoundTrip(t *testing.T) {
	r := &Recover{
		Requester: 4,
		Wants: []WantRange{
			{Proc: 0, From: 3, To: 9},
			{Proc: 2, From: 1, To: 1},
		},
	}
	got := roundTrip(t, r).(*Recover)
	if !reflect.DeepEqual(r, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", r, got)
	}
}

func TestRetransmitRoundTrip(t *testing.T) {
	rt := &Retransmit{
		Responder: 1,
		Msgs: []*causal.Message{
			{ID: mid.MID{Proc: 0, Seq: 1}, Payload: []byte("a")},
			{ID: mid.MID{Proc: 0, Seq: 2}, Deps: mid.DepList{{Proc: 1, Seq: 1}}},
		},
	}
	got := roundTrip(t, rt).(*Retransmit)
	if !reflect.DeepEqual(rt, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", rt, got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty buffer must fail")
	}
	if _, err := Unmarshal([]byte{99}); err == nil {
		t.Error("unknown kind must fail")
	}
	// Truncations of a valid PDU at every prefix length must error, never
	// panic or succeed.
	buf, err := Marshal(mkDecision(5))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Unmarshal(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(buf))
		}
	}
	// Trailing garbage must error.
	if _, err := Unmarshal(append(append([]byte{}, buf...), 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestDecisionClone(t *testing.T) {
	d := mkDecision(4)
	c := d.Clone()
	if !reflect.DeepEqual(d, c) {
		t.Fatal("clone should equal original")
	}
	c.MaxProcessed[0] = 999
	c.Alive[1] = !c.Alive[1]
	if d.MaxProcessed[0] == 999 || d.Alive[1] == c.Alive[1] {
		t.Error("clone must be independent")
	}
	if (*Decision)(nil).Clone() != nil {
		t.Error("nil clone is nil")
	}
}

// TestMarshalAppendPrefix: MarshalAppend behind any prefix produces the
// exact bytes Marshal produces, leaves the prefix intact, and grows the
// slice by exactly EncodedSize.
func TestMarshalAppendPrefix(t *testing.T) {
	pdus := []PDU{
		&Data{Msg: causal.Message{ID: mid.MID{Proc: 3, Seq: 17}, Payload: []byte("hello")}},
		&Request{Sender: 2, Subrun: 7, LastProcessed: mid.SeqVector{1, 2, 3}, Waiting: mid.SeqVector{0, 5, 0}, Prev: mkDecision(3)},
		mkDecision(8),
		&Recover{Requester: 4, Wants: []WantRange{{Proc: 0, From: 3, To: 9}}},
		&Retransmit{Responder: 1, Msgs: []*causal.Message{{ID: mid.MID{Proc: 0, Seq: 1}, Payload: []byte("a")}},
			Compacted: []WantRange{{Proc: 2, From: 1, To: 6}}},
		&Join{Joiner: 2},
		&JoinState{Sponsor: 0, Resume: 4, Stable: mid.SeqVector{1, 2, 3}, Processed: mid.SeqVector{2, 2, 4}, Prev: mkDecision(3)},
	}
	prefixes := [][]byte{nil, {}, {0xde, 0xad, 0xbe, 0xef}, bytes.Repeat([]byte{7}, 100)}
	for _, p := range pdus {
		want, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, prefix := range prefixes {
			dst := append([]byte(nil), prefix...)
			got, err := MarshalAppend(dst, p)
			if err != nil {
				t.Fatalf("%v: MarshalAppend: %v", p.Kind(), err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("%v: prefix clobbered", p.Kind())
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%v: appended bytes differ from Marshal:\n append %x\n direct %x", p.Kind(), got[len(prefix):], want)
			}
			if len(got) != len(prefix)+p.EncodedSize() {
				t.Fatalf("%v: appended %d bytes, EncodedSize %d", p.Kind(), len(got)-len(prefix), p.EncodedSize())
			}
		}
	}
}

// TestMarshalAppendErrorKeepsPrefix: a failed MarshalAppend must not leave
// a half-written PDU visible behind the prefix.
func TestMarshalAppendErrorKeepsPrefix(t *testing.T) {
	bad := &Request{LastProcessed: mid.SeqVector{1}, Waiting: mid.SeqVector{1, 2}}
	prefix := []byte{1, 2, 3}
	got, err := MarshalAppend(append([]byte(nil), prefix...), bad)
	if err == nil {
		t.Fatal("mismatched vectors must be rejected")
	}
	if !bytes.Equal(got, prefix) {
		t.Fatalf("error path returned %x, want the untouched prefix %x", got, prefix)
	}
}

// TestUnmarshalDoesNotAliasInput: decoded PDUs must own all their memory so
// the input buffer can be pooled/reused the moment Unmarshal returns. This
// is the ownership rule the rt and transport hot paths rely on.
func TestUnmarshalDoesNotAliasInput(t *testing.T) {
	pdus := []PDU{
		&Data{Msg: causal.Message{
			ID:      mid.MID{Proc: 3, Seq: 17},
			Deps:    mid.DepList{{Proc: 0, Seq: 4}, {Proc: 2, Seq: 9}},
			Payload: []byte("payload bytes"),
		}},
		&Request{Sender: 2, Subrun: 7, LastProcessed: mid.SeqVector{1, 2, 3}, Waiting: mid.SeqVector{0, 5, 0}, Prev: mkDecision(3)},
		mkDecision(9),
		&Retransmit{Responder: 1, Msgs: []*causal.Message{
			{ID: mid.MID{Proc: 0, Seq: 1}, Payload: []byte("retained")},
		}, Compacted: []WantRange{{Proc: 4, From: 2, To: 8}}},
		&JoinState{Sponsor: 1, Resume: 3, Stable: mid.SeqVector{5, 5, 5}, Processed: mid.SeqVector{7, 5, 6}, Prev: mkDecision(3)},
	}
	for _, p := range pdus {
		buf, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		// Scribble over the input as a pooled-reuse would; the decoded PDU
		// must be unaffected.
		for i := range buf {
			buf[i] = 0xAA
		}
		re, err := Marshal(got)
		if err != nil {
			t.Fatalf("%v: re-marshal after input scribble: %v", p.Kind(), err)
		}
		want, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, want) {
			t.Errorf("%v: decoded PDU aliases the input buffer (corrupted after scribble)", p.Kind())
		}
	}
}

// TestGetPutBuf exercises the pool contract.
func TestGetPutBuf(t *testing.T) {
	b := GetBuf(128)
	if len(b) != 0 || cap(b) < 128 {
		t.Fatalf("GetBuf(128): len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	b2 := GetBuf(8)
	if len(b2) != 0 {
		t.Fatalf("recycled buffer not reset: len=%d", len(b2))
	}
	PutBuf(nil)                          // must not panic
	PutBuf(make([]byte, maxPooledBuf+1)) // oversize: silently dropped
	big := GetBuf(maxPooledBuf + 1)      // bigger than anything pooled
	if cap(big) < maxPooledBuf+1 {
		t.Fatalf("GetBuf must satisfy the request: cap=%d", cap(big))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindData: "DATA", KindRequest: "REQUEST", KindDecision: "DECISION",
		KindRecover: "RECOVER", KindRetransmit: "RETRANSMIT",
		KindJoin: "JOIN", KindJoinState: "JOIN-STATE", Kind(77): "KIND(77)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// Property: Marshal∘Unmarshal∘Marshal is the identity on bytes for randomly
// generated PDUs of every kind.
func TestMarshalRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randMsg := func() *causal.Message {
		m := &causal.Message{ID: mid.MID{Proc: mid.ProcID(rng.Intn(20)), Seq: mid.Seq(1 + rng.Intn(1000))}}
		for d := rng.Intn(5); d > 0; d-- {
			m.Deps = append(m.Deps, mid.MID{Proc: mid.ProcID(rng.Intn(20)), Seq: mid.Seq(1 + rng.Intn(1000))})
		}
		if rng.Intn(2) == 0 {
			m.Payload = make([]byte, rng.Intn(100))
			rng.Read(m.Payload)
			if len(m.Payload) == 0 {
				m.Payload = nil
			}
		}
		return m
	}
	for trial := 0; trial < 300; trial++ {
		var p PDU
		switch rng.Intn(7) {
		case 0:
			p = &Data{Msg: *randMsg()}
		case 1:
			n := 1 + rng.Intn(12)
			req := &Request{
				Sender:        mid.ProcID(rng.Intn(n)),
				Subrun:        rng.Int63n(1 << 40),
				LastProcessed: mid.NewSeqVector(n),
				Waiting:       mid.NewSeqVector(n),
				Join:          rng.Intn(4) == 0,
			}
			for i := 0; i < n; i++ {
				req.LastProcessed[i] = mid.Seq(rng.Intn(500))
				req.Waiting[i] = mid.Seq(rng.Intn(500))
			}
			if rng.Intn(2) == 0 {
				req.Prev = mkDecision(n)
			}
			p = req
		case 2:
			p = mkDecision(1 + rng.Intn(40))
		case 3:
			rec := &Recover{Requester: mid.ProcID(rng.Intn(10))}
			for i := rng.Intn(6); i > 0; i-- {
				f := mid.Seq(1 + rng.Intn(100))
				rec.Wants = append(rec.Wants, WantRange{Proc: mid.ProcID(rng.Intn(10)), From: f, To: f + mid.Seq(rng.Intn(20))})
			}
			p = rec
		case 4:
			p = &Join{Joiner: mid.ProcID(rng.Intn(20))}
		case 5:
			n := 1 + rng.Intn(12)
			js := &JoinState{
				Sponsor:   mid.ProcID(rng.Intn(n)),
				Resume:    mid.Seq(rng.Intn(500)),
				Stable:    mid.NewSeqVector(n),
				Processed: mid.NewSeqVector(n),
			}
			for i := 0; i < n; i++ {
				js.Stable[i] = mid.Seq(rng.Intn(500))
				js.Processed[i] = js.Stable[i] + mid.Seq(rng.Intn(50))
			}
			if rng.Intn(2) == 0 {
				js.Prev = mkDecision(n)
			}
			p = js
		default:
			rt := &Retransmit{Responder: mid.ProcID(rng.Intn(10))}
			for i := rng.Intn(4); i > 0; i-- {
				rt.Msgs = append(rt.Msgs, randMsg())
			}
			for i := rng.Intn(3); i > 0; i-- {
				f := mid.Seq(1 + rng.Intn(100))
				rt.Compacted = append(rt.Compacted, WantRange{Proc: mid.ProcID(rng.Intn(10)), From: f, To: f + mid.Seq(rng.Intn(20))})
			}
			p = rt
		}
		b1, err := Marshal(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q, err := Unmarshal(b1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b2, err := Marshal(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("trial %d: re-marshal differs for %v", trial, p.Kind())
		}
	}
}
