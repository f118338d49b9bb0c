package wire

import (
	"bytes"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// FuzzUnmarshal throws arbitrary bytes at the decoder: it must never panic,
// and anything it accepts must re-marshal to the same bytes (canonical
// encoding). Runs its seed corpus under plain `go test`; extend with
// `go test -fuzz=FuzzUnmarshal ./internal/wire`.
func FuzzUnmarshal(f *testing.F) {
	seed := []PDU{
		&Data{Msg: causal.Message{
			ID:      mid.MID{Proc: 3, Seq: 17},
			Deps:    mid.DepList{{Proc: 0, Seq: 4}},
			Payload: []byte("payload"),
		}},
		&Request{
			Sender: 2, Subrun: 7,
			LastProcessed: mid.SeqVector{1, 2, 3},
			Waiting:       mid.SeqVector{0, 5, 0},
		},
		mkDecision(5),
		&Recover{Requester: 4, Wants: []WantRange{{Proc: 0, From: 3, To: 9}}},
		&Retransmit{Responder: 1, Msgs: []*causal.Message{
			{ID: mid.MID{Proc: 0, Seq: 1}, Payload: []byte("a")},
		}},
		&DataBatch{Msgs: []causal.Message{
			{ID: mid.MID{Proc: 1, Seq: 5}, Deps: mid.DepList{{Proc: 2, Seq: 3}}, Payload: []byte("b0")},
			{ID: mid.MID{Proc: 1, Seq: 6}, Payload: []byte("b1")},
		}},
		// The datagram that used to kill a member: a negative ProcID is a
		// perfectly good int32 to the codec. It must decode (and re-encode to
		// the same bytes); refusing it is the protocol boundary's job
		// (core.TestForgedProcIDsAreDroppedAndCounted).
		&Data{Msg: causal.Message{
			ID:   mid.MID{Proc: 1, Seq: 1},
			Deps: mid.DepList{{Proc: -2, Seq: 1}},
		}},
	}
	for _, p := range seed {
		buf, err := Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		out, err := Marshal(p)
		if err != nil {
			t.Fatalf("accepted PDU failed to re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical decode:\n in  %x\n out %x", data, out)
		}
		if p.EncodedSize() != len(data) {
			t.Fatalf("EncodedSize %d != wire length %d", p.EncodedSize(), len(data))
		}
		// MarshalAppend behind a non-empty prefix must reproduce the exact
		// same bytes and leave the prefix intact.
		prefix := []byte{0xC0, 0xFF, 0xEE}
		app, err := MarshalAppend(append([]byte(nil), prefix...), p)
		if err != nil {
			t.Fatalf("MarshalAppend failed where Marshal succeeded: %v", err)
		}
		if !bytes.Equal(app[:len(prefix)], prefix) || !bytes.Equal(app[len(prefix):], data) {
			t.Fatalf("MarshalAppend diverges from Marshal:\n got %x\n want %x%x", app, prefix, data)
		}
		// Ownership: the decoded PDU must not alias the input. Scribble the
		// input (as pooled reuse would) and re-marshal — bytes must hold.
		for i := range data {
			data[i] ^= 0xFF
		}
		out2, err := Marshal(p)
		if err != nil {
			t.Fatalf("re-marshal after input scribble: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("decoded PDU aliases pooled input memory:\n before %x\n after  %x", out, out2)
		}
	})
}

// FuzzBundle throws arbitrary bytes at the bundle splitter. It never reads
// past its input: every frame it splits off lies inside the bundle, in order,
// and a bundle it splits to the end rebuilds to the same bytes. And frames
// carved from the input, appended as a bundle, split back out unchanged.
// Runs its seed corpus under plain `go test`; extend with
// `go test -fuzz=FuzzBundle ./internal/wire`.
func FuzzBundle(f *testing.F) {
	frame := append(AppendEnvelope(nil, 3, 1), 0x01, 0x02, 0x03)
	bundled := func(fr []byte) []byte { return append(AppendBundled(nil, fr), fr...) }
	join := func(parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{AppendBundleHeader(nil)}, parts...), nil)
	}
	f.Add(join(bundled(frame), bundled(frame[:4])))            // two frames
	f.Add(join())                                              // a lone marker
	f.Add(join(bundled(frame), []byte{0, 0, 0, 0}))            // a zero length
	f.Add(join([]byte{0, 0, 0, 9}, frame))                     // a length past the end
	f.Add(join(bundled(join(bundled(frame)))))                 // a bundle inside a bundle
	f.Add(join(bundled(frame), []byte{0xee, 0xee}))            // a frame, then garbage
	f.Add(frame)                                               // a plain frame
	f.Add([]byte{0x80, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x01}) // a length that wraps

	f.Fuzz(func(t *testing.T, data []byte) {
		if IsBundle(data) {
			rebuilt := AppendBundleHeader(nil)
			rest := data[BundleHeaderSize:]
			for len(rest) > 0 {
				fr, tail, err := NextBundled(rest)
				if err != nil {
					break
				}
				if len(fr) == 0 || 4+len(fr)+len(tail) != len(rest) || !bytes.Equal(fr, rest[4:4+len(fr)]) || IsBundle(fr) {
					t.Fatalf("split %d bytes into a %d-byte frame and a %d-byte tail", len(rest), len(fr), len(tail))
				}
				rebuilt = append(AppendBundled(rebuilt, fr), fr...)
				rest = tail
			}
			if len(rest) == 0 && !bytes.Equal(rebuilt, data) {
				t.Fatalf("bundle split whole but rebuilt differently:\n got %x\nwant %x", rebuilt, data)
			}
		}
		// Carve data into frames (the first byte of each sizes it) and
		// bundle them; a frame that is itself a bundle is not bundled.
		var frames [][]byte
		b := AppendBundleHeader(nil)
		for i := 0; i < len(data); {
			fr := data[i:min(len(data), i+1+int(data[i])%64)]
			i += len(fr)
			if !IsBundle(fr) {
				frames = append(frames, fr)
				b = append(AppendBundled(b, fr), fr...)
			}
		}
		if !IsBundle(b) {
			t.Fatal("an appended bundle does not read as one")
		}
		rest := b[BundleHeaderSize:]
		for i, want := range frames {
			fr, tail, err := NextBundled(rest)
			if err != nil || !bytes.Equal(fr, want) {
				t.Fatalf("frame %d of %d: %x (err %v), want %x", i, len(frames), fr, err, want)
			}
			rest = tail
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after the last frame", len(rest))
		}
	})
}
