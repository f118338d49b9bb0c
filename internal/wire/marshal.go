package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// marshalCalls counts completed PDU encodings. The runtimes' broadcast
// paths promise exactly one marshal per PDU regardless of fan-out; tests
// assert that promise through MarshalCalls.
var marshalCalls atomic.Uint64

// MarshalCalls returns the number of PDU encodings performed so far. It is
// a testing hook for marshal-once assertions; the counter never resets.
func MarshalCalls() uint64 { return marshalCalls.Load() }

// Marshal encodes a PDU to a fresh buffer of exactly EncodedSize bytes.
func Marshal(p PDU) ([]byte, error) {
	return MarshalAppend(make([]byte, 0, p.EncodedSize()), p)
}

// MarshalAppend appends the encoding of p to dst and returns the extended
// slice, growing it at most once. The bytes appended are exactly
// p.EncodedSize() long and identical to what Marshal produces, whatever the
// prefix already in dst. On error dst is returned unchanged in content
// (its capacity may have grown).
func MarshalAppend(dst []byte, p PDU) ([]byte, error) {
	w := &writer{buf: grow(dst, p.EncodedSize())}
	start := len(dst)
	w.u8(uint8(p.Kind()))
	switch v := p.(type) {
	case *Data:
		if err := marshalMsgBody(w, &v.Msg); err != nil {
			return dst, err
		}
	case *DataBatch:
		if len(v.Msgs) > MaxBatch {
			return dst, fmt.Errorf("wire: batch of %d messages: %w", len(v.Msgs), ErrTooLarge)
		}
		w.u16(uint16(len(v.Msgs)))
		for i := range v.Msgs {
			if err := marshalMsgBody(w, &v.Msgs[i]); err != nil {
				return dst, err
			}
		}
	case *Request:
		w.i32(int32(v.Sender))
		w.i64(v.Subrun)
		if len(v.LastProcessed) != len(v.Waiting) {
			return dst, fmt.Errorf("wire: request vectors disagree on n (%d vs %d)", len(v.LastProcessed), len(v.Waiting))
		}
		if len(v.LastProcessed) > MaxVector {
			return dst, fmt.Errorf("wire: request vectors of %d entries: %w", len(v.LastProcessed), ErrTooLarge)
		}
		w.u16(uint16(len(v.LastProcessed)))
		w.seqVec(v.LastProcessed)
		w.seqVec(v.Waiting)
		var flags uint8
		if v.Prev != nil {
			flags |= 1
		}
		if v.Join {
			flags |= 2
		}
		w.u8(flags)
		if v.Prev != nil {
			if err := marshalDecisionBody(w, v.Prev); err != nil {
				return dst, err
			}
		}
	case *Decision:
		if err := marshalDecisionBody(w, v); err != nil {
			return dst, err
		}
	case *Recover:
		if len(v.Wants) > MaxWants {
			return dst, fmt.Errorf("wire: recover of %d ranges: %w", len(v.Wants), ErrTooLarge)
		}
		w.i32(int32(v.Requester))
		w.u16(uint16(len(v.Wants)))
		for _, want := range v.Wants {
			w.i32(int32(want.Proc))
			w.u32(uint32(want.From))
			w.u32(uint32(want.To))
		}
	case *Retransmit:
		if len(v.Msgs) > MaxBatch {
			return dst, fmt.Errorf("wire: retransmit of %d messages: %w", len(v.Msgs), ErrTooLarge)
		}
		if len(v.Compacted) > MaxWants {
			return dst, fmt.Errorf("wire: retransmit of %d compacted ranges: %w", len(v.Compacted), ErrTooLarge)
		}
		w.i32(int32(v.Responder))
		w.u16(uint16(len(v.Msgs)))
		for _, m := range v.Msgs {
			if err := marshalMsgBody(w, m); err != nil {
				return dst, err
			}
		}
		w.u16(uint16(len(v.Compacted)))
		for _, want := range v.Compacted {
			w.i32(int32(want.Proc))
			w.u32(uint32(want.From))
			w.u32(uint32(want.To))
		}
	case *Join:
		w.i32(int32(v.Joiner))
	case *JoinState:
		if len(v.Stable) != len(v.Processed) {
			return dst, fmt.Errorf("wire: joinstate vectors disagree on n (%d vs %d)", len(v.Stable), len(v.Processed))
		}
		if len(v.Stable) > MaxVector {
			return dst, fmt.Errorf("wire: joinstate vectors of %d entries: %w", len(v.Stable), ErrTooLarge)
		}
		w.i32(int32(v.Sponsor))
		w.u32(uint32(v.Resume))
		w.u16(uint16(len(v.Stable)))
		w.seqVec(v.Stable)
		w.seqVec(v.Processed)
		if v.Prev == nil {
			w.u8(0)
		} else {
			w.u8(1)
			if err := marshalDecisionBody(w, v.Prev); err != nil {
				return dst, err
			}
		}
	default:
		return dst, fmt.Errorf("wire: unknown PDU type %T", p)
	}
	if len(w.buf)-start != p.EncodedSize() {
		return dst, fmt.Errorf("wire: %v encoded to %d bytes, EncodedSize says %d", p.Kind(), len(w.buf)-start, p.EncodedSize())
	}
	marshalCalls.Add(1)
	return w.buf, nil
}

// grow returns b with room for at least n more bytes, reallocating at most
// once (append's growth policy may over-allocate, which the pool welcomes).
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	nb := make([]byte, len(b), len(b)+n)
	copy(nb, b)
	return nb
}

// Unmarshal decodes a buffer produced by Marshal. The returned PDU owns
// every byte of its variable-length fields: nothing in it aliases buf, so
// the caller may reuse or pool buf the moment Unmarshal returns.
//
// What the PDU owns is allocated per frame, not per field: every message
// header of a Data, DataBatch or Retransmit comes from one array and every
// payload and dependency list from ONE slab sized from the frame (see slab),
// and the vectors of a Request, Decision or JoinState — the embedded
// decision's included — from one arena. The fields of one PDU therefore share
// their backing memory, and it stays reachable until the last of them is
// dropped: a batch's slab lives until the history has cleaned the frame's
// last message. The three-index slices handed out cap every field exactly, so
// appending to one reallocates instead of reaching a neighbour.
//
// Unmarshal always allocates the PDU fresh, so the caller owns it for good.
// The live runtimes' readers decode through a FreeList instead — the same
// routine, with the list's Arena and recycled records as its source.
func Unmarshal(buf []byte) (PDU, error) { return (*FreeList)(nil).Unmarshal(buf) }

// Unmarshal decodes like the package-level Unmarshal, except for where the
// memory comes from. The messages of a Data, DataBatch or Retransmit are
// carved from f's Arena, to be retained for good. A Request (with its
// embedded decision), a Decision, and the DataBatch or Retransmit record
// around the messages are decoded into a record taken from f when one is
// there: such a record is the caller's only until it hands it back with Put —
// after the protocol's Recv returned, which keeps nothing of it. A nil f
// allocates everything fresh.
//
// One goroutine takes from a list: the socket reader, or the mesh shard loop
// a frame was handed to. The arena is not synchronised.
func (f *FreeList) Unmarshal(buf []byte) (PDU, error) {
	if f == nil {
		f = &FreeList{} // no records to take, and a fresh arena: exact allocations
	}
	a := &f.arena
	r := &reader{buf: buf}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	var p PDU
	switch Kind(kind) {
	case KindData:
		// The Data record is the message itself (core keeps &d.Msg): it is
		// carved as a header, which has its layout.
		size := max(r.remaining()-msgFixed, 0)
		d := (*Data)(unsafe.Pointer(a.Message(size)))
		if err := unmarshalMsgBody(r, &d.Msg, a.slab(size)); err != nil {
			return nil, err
		}
		p = d
	case KindDataBatch:
		b := take(f.batches)
		cnt, err := r.u16()
		if err != nil {
			return nil, err
		}
		// Every message body is at least msgFixed bytes (mid + two zero
		// counts); reject a forged count before it sizes an allocation.
		if r.remaining() < msgFixed*int(cnt) {
			return nil, ErrTruncated
		}
		// Decoded messages are handed to the protocol individually
		// (&Msgs[i]) but are carved side by side. What the frame holds
		// beyond the fixed fields is exactly its dependency labels and
		// payload bytes: one slab with that much room backs them all.
		size := r.remaining() - msgFixed*int(cnt)
		b.Msgs = a.carve(int(cnt), size)
		sl := a.slab(size)
		for i := range b.Msgs {
			if err := unmarshalMsgBody(r, &b.Msgs[i], sl); err != nil {
				return nil, err
			}
		}
		p = b
	case KindRequest:
		req := take(f.reqs)
		if req.Sender, err = r.procID(); err != nil {
			return nil, err
		}
		if req.Subrun, err = r.i64(); err != nil {
			return nil, err
		}
		n16, err := r.u16()
		if err != nil {
			return nil, err
		}
		n := int(n16)
		vecs, err := r.take(8 * n)
		if err != nil {
			return nil, err
		}
		flags, err := r.u8()
		if err != nil {
			return nil, err
		}
		if flags&^uint8(3) != 0 {
			return nil, fmt.Errorf("wire: non-canonical request flags %#x", flags)
		}
		req.Join = flags&2 != 0
		if err = unmarshalPrev(r, flags&1 != 0, vecs, &req.Prev, &req.LastProcessed, &req.Waiting); err != nil {
			return nil, err
		}
		p = req
	case KindDecision:
		d := take(f.decs)
		if _, err := unmarshalDecisionBody(r, d, 0); err != nil {
			return nil, err
		}
		p = d
	case KindRecover:
		rec := &Recover{}
		if rec.Requester, err = r.procID(); err != nil {
			return nil, err
		}
		cnt, err := r.u16()
		if err != nil {
			return nil, err
		}
		rec.Wants = make([]WantRange, cnt)
		for i := range rec.Wants {
			if rec.Wants[i].Proc, err = r.procID(); err != nil {
				return nil, err
			}
			f, err := r.u32()
			if err != nil {
				return nil, err
			}
			t, err := r.u32()
			if err != nil {
				return nil, err
			}
			rec.Wants[i].From, rec.Wants[i].To = mid.Seq(f), mid.Seq(t)
		}
		p = rec
	case KindRetransmit:
		rt := take(f.resends)
		if rt.Responder, err = r.procID(); err != nil {
			return nil, err
		}
		cnt, err := r.u16()
		if err != nil {
			return nil, err
		}
		rt.Msgs = rt.Msgs[:0]
		if cnt > 0 {
			// The two-byte compacted count follows the messages; the ranges
			// behind it make the slab a few bytes generous, never short.
			if r.remaining() < msgFixed*int(cnt)+2 {
				return nil, ErrTruncated
			}
			size := r.remaining() - msgFixed*int(cnt) - 2
			msgs := a.carve(int(cnt), size)
			sl := a.slab(size)
			rt.Msgs = slices.Grow(rt.Msgs, int(cnt))
			for i := range msgs {
				if err := unmarshalMsgBody(r, &msgs[i], sl); err != nil {
					return nil, err
				}
				rt.Msgs = append(rt.Msgs, &msgs[i])
			}
		}
		ccnt, err := r.u16()
		if err != nil {
			return nil, err
		}
		if r.remaining() < 12*int(ccnt) {
			return nil, ErrTruncated
		}
		rt.Compacted = rt.Compacted[:0]
		if ccnt > 0 {
			rt.Compacted = slices.Grow(rt.Compacted, int(ccnt))[:ccnt]
			for i := range rt.Compacted {
				if rt.Compacted[i].Proc, err = r.procID(); err != nil {
					return nil, err
				}
				f, err := r.u32()
				if err != nil {
					return nil, err
				}
				t, err := r.u32()
				if err != nil {
					return nil, err
				}
				rt.Compacted[i].From, rt.Compacted[i].To = mid.Seq(f), mid.Seq(t)
			}
		}
		p = rt
	case KindJoin:
		j := &Join{}
		if j.Joiner, err = r.procID(); err != nil {
			return nil, err
		}
		p = j
	case KindJoinState:
		js := &JoinState{}
		if js.Sponsor, err = r.procID(); err != nil {
			return nil, err
		}
		res, err := r.u32()
		if err != nil {
			return nil, err
		}
		js.Resume = mid.Seq(res)
		n16, err := r.u16()
		if err != nil {
			return nil, err
		}
		n := int(n16)
		vecs, err := r.take(8 * n)
		if err != nil {
			return nil, err
		}
		has, err := r.u8()
		if err != nil {
			return nil, err
		}
		if has > 1 {
			return nil, fmt.Errorf("wire: non-canonical hasPrev byte %#x", has)
		}
		if err = unmarshalPrev(r, has != 0, vecs, &js.Prev, &js.Stable, &js.Processed); err != nil {
			return nil, err
		}
		p = js
	default:
		return nil, fmt.Errorf("wire: unknown kind %d", kind)
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(buf)-r.off, p.Kind())
	}
	return p, nil
}

func marshalMsgBody(w *writer, m *causal.Message) error {
	// Both counts ride 16-bit prefixes; without these checks a 65536-byte
	// payload would encode length 0 and corrupt the frame silently.
	if len(m.Deps) > MaxDeps {
		return fmt.Errorf("wire: message %v with %d deps: %w", m.ID, len(m.Deps), ErrTooLarge)
	}
	if len(m.Payload) > MaxPayload {
		return fmt.Errorf("wire: message %v payload of %d bytes: %w", m.ID, len(m.Payload), ErrTooLarge)
	}
	w.i32(int32(m.ID.Proc))
	w.u32(uint32(m.ID.Seq))
	w.u16(uint16(len(m.Deps)))
	for _, d := range m.Deps {
		w.i32(int32(d.Proc))
		w.u32(uint32(d.Seq))
	}
	w.u16(uint16(len(m.Payload)))
	w.bytes(m.Payload)
	return nil
}

// msgFixed is the fixed part of one encoded message body: mid(8) +
// depCount(2) + payloadLen(2).
const msgFixed = 12

// unmarshalMsgBody decodes one message, copying its labels and payload into
// sl so the message owns them: decoded PDUs are retained indefinitely
// (history), while buf may be pooled.
func unmarshalMsgBody(r *reader, m *causal.Message, sl *slab) error {
	var err error
	if m.ID.Proc, err = r.procID(); err != nil {
		return err
	}
	s, err := r.u32()
	if err != nil {
		return err
	}
	m.ID.Seq = mid.Seq(s)
	cnt, err := r.u16()
	if err != nil {
		return err
	}
	m.Deps = nil
	if cnt > 0 {
		raw, err := r.take(8 * int(cnt))
		if err != nil {
			return err
		}
		var ok bool
		if m.Deps, ok = sl.deps(int(cnt)); !ok {
			return ErrTruncated
		}
		for i := range m.Deps {
			m.Deps[i].Proc = mid.ProcID(int32(binary.BigEndian.Uint32(raw[8*i:])))
			m.Deps[i].Seq = mid.Seq(binary.BigEndian.Uint32(raw[8*i+4:]))
		}
	}
	plen, err := r.u16()
	if err != nil {
		return err
	}
	raw, err := r.take(int(plen))
	if err != nil {
		return err
	}
	m.Payload = nil
	if len(raw) > 0 {
		var ok bool
		if m.Payload, ok = sl.bytes(len(raw)); !ok {
			return ErrTruncated
		}
		copy(m.Payload, raw)
	}
	return nil
}

func marshalDecisionBody(w *writer, d *Decision) error {
	n := len(d.MaxProcessed)
	if !d.Sized(n) {
		return fmt.Errorf("wire: decision field lengths disagree (n=%d)", n)
	}
	w.i64(d.Subrun)
	w.i32(int32(d.Coord))
	w.u16(uint16(n))
	var flags uint8
	if d.FullGroup {
		flags |= 1
	}
	w.u8(flags)
	w.seqVec(d.MaxProcessed)
	w.procVec(d.MostUpdated)
	w.seqVec(d.MinWaiting)
	w.seqVec(d.CleanTo)
	w.bytes(d.Attempts)
	w.bitmask(d.Alive)
	w.bitmask(d.Covered)
	return nil
}

// unmarshalPrev finishes a Request or JoinState in place: vecs holds the two
// raw n-entry vectors already consumed from the frame (they decode into *a and
// *b), and the optional embedded decision follows (into *prev). A fresh PDU
// gets both vectors and every field of the decision out of one arena — the
// decision's, asked for 2n spare entries — so it costs one vector allocation
// whether or not it carries a decision. A recycled one keeps whatever of its
// old vectors and decision record already has the frame's geometry.
func unmarshalPrev(r *reader, hasPrev bool, vecs []byte, prev **Decision, a, b *mid.SeqVector) error {
	n := len(vecs) / 8
	fits := *a != nil && len(*a) == n && len(*b) == n
	spare := 0
	if !fits {
		spare = 2 * n
	}
	var arena mid.SeqVector
	if !hasPrev {
		*prev = nil
		if !fits {
			arena = make(mid.SeqVector, spare)
		}
	} else {
		if *prev == nil {
			*prev = &Decision{}
		}
		var err error
		if arena, err = unmarshalDecisionBody(r, *prev, spare); err != nil {
			return err
		}
	}
	if !fits {
		*a, *b = arena[:n:n], arena[n:2*n:2*n]
	}
	for i := range *a {
		(*a)[i] = mid.Seq(binary.BigEndian.Uint32(vecs[4*i:]))
		(*b)[i] = mid.Seq(binary.BigEndian.Uint32(vecs[4*(n+i):]))
	}
	return nil
}

// unmarshalDecisionBody decodes a decision into d and returns spare extra
// zeroed entries from the same arena for the caller's own vectors. A recycled
// d whose vectors already have the frame's n entries is decoded over in place
// when the caller asks for no spare; anything else is carved anew.
func unmarshalDecisionBody(r *reader, d *Decision, spare int) (mid.SeqVector, error) {
	var err error
	if d.Subrun, err = r.i64(); err != nil {
		return nil, err
	}
	if d.Coord, err = r.procID(); err != nil {
		return nil, err
	}
	n16, err := r.u16()
	if err != nil {
		return nil, err
	}
	n := int(n16)
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags&^uint8(1) != 0 {
		return nil, fmt.Errorf("wire: non-canonical decision flags %#x", flags)
	}
	d.FullGroup = flags&1 != 0
	// Before allocating anything sized by the claimed n, make sure the
	// buffer can actually hold the body (a forged header must not trigger
	// a large allocation).
	if need := 16*n + n + 2*((n+7)/8); r.remaining() < need {
		return nil, ErrTruncated
	}
	var extra mid.SeqVector
	if spare > 0 || d.MaxProcessed == nil || !d.Sized(n) {
		extra = d.carve(n, spare)
	}
	if err = r.seqVecInto(d.MaxProcessed); err != nil {
		return nil, err
	}
	if err = r.procVecInto(d.MostUpdated); err != nil {
		return nil, err
	}
	if err = r.seqVecInto(d.MinWaiting); err != nil {
		return nil, err
	}
	if err = r.seqVecInto(d.CleanTo); err != nil {
		return nil, err
	}
	raw, err := r.take(n)
	if err != nil {
		return nil, err
	}
	copy(d.Attempts, raw)
	if err = r.bitmaskInto(d.Alive); err != nil {
		return nil, err
	}
	return extra, r.bitmaskInto(d.Covered)
}

// NewDecision returns a zeroed decision for a group of n whose vector fields
// are all carved from one allocation, the way Unmarshal builds them — for a
// process, which keeps three such records and copies into them or fills them
// in place.
func NewDecision(n int) *Decision {
	d := &Decision{}
	d.carve(n, 0)
	return d
}

// carve gives every slice field of d its n zeroed entries out of ONE arena
// of 4-byte words — the four 4-byte-element vectors, spare extra entries for
// the caller (returned), and behind them the three 1-byte-element fields
// viewed as bytes. A record costs per allocation, not per byte: this turns 7
// slice allocations into 1 wherever one is still made (a fresh decode, a
// process's three records). The three-index subslices cap each field
// exactly, so a later append cannot stomp a neighbouring field.
func (d *Decision) carve(n, spare int) mid.SeqVector {
	words := 4*n + spare
	u32s := make(mid.SeqVector, words+(3*n+3)/4)
	d.MaxProcessed = u32s[0*n : 1*n : 1*n]
	d.MinWaiting = u32s[1*n : 2*n : 2*n]
	d.CleanTo = u32s[2*n : 3*n : 3*n]
	d.MostUpdated = procIDSlice(u32s[3*n : 4*n : 4*n])
	bytes := byteSlice(u32s[words:])
	d.Attempts = bytes[0*n : 1*n : 1*n]
	d.Alive = boolSlice(bytes[1*n : 2*n : 2*n])
	d.Covered = boolSlice(bytes[2*n : 3*n : 3*n])
	return u32s[4*n : words : words]
}

// byteSlice views the tail of a Seq arena as bytes (four per entry). The
// arena holds no pointers, and no entry is ever read through both views.
func byteSlice(v mid.SeqVector) []uint8 {
	if len(v) == 0 {
		return []uint8{}
	}
	return unsafe.Slice((*uint8)(unsafe.Pointer(&v[0])), 4*len(v))
}

// procIDSlice reinterprets a section of a Seq arena as []mid.ProcID. Both
// are 32-bit integer types with identical layout; the reinterpretation only
// shares the backing allocation, never overlapping elements.
func procIDSlice(v mid.SeqVector) []mid.ProcID {
	if len(v) == 0 {
		return []mid.ProcID{}
	}
	return unsafe.Slice((*mid.ProcID)(unsafe.Pointer(&v[0])), len(v))
}

// boolSlice reinterprets a zeroed section of a byte arena as []bool. Every
// element is written as a genuine bool (the arena starts zeroed = all
// false) before anything reads it, so no byte ever holds a non-bool value.
func boolSlice(b []uint8) []bool {
	if len(b) == 0 {
		return []bool{}
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), len(b))
}

// writer appends big-endian fields to a buffer. MarshalAppend pre-grows the
// buffer to the PDU's EncodedSize, so the append calls below normally never
// reallocate; extend covers the defensive general case.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) i64(v int64)  { w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v)) }
func (w *writer) bytes(b []byte) {
	w.buf = append(w.buf, b...)
}

// extend lengthens the buffer by n zeroed bytes and returns the offset at
// which they start, so callers can fill a whole field with one bulk write.
func (w *writer) extend(n int) int {
	off := len(w.buf)
	if cap(w.buf)-off >= n {
		w.buf = w.buf[: off+n : cap(w.buf)]
		clear(w.buf[off:])
	} else {
		w.buf = append(w.buf, make([]byte, n)...)
	}
	return off
}

func (w *writer) seqVec(v mid.SeqVector) {
	off := w.extend(4 * len(v))
	for i, s := range v {
		binary.BigEndian.PutUint32(w.buf[off+4*i:], uint32(s))
	}
}

func (w *writer) procVec(v []mid.ProcID) {
	off := w.extend(4 * len(v))
	for i, p := range v {
		binary.BigEndian.PutUint32(w.buf[off+4*i:], uint32(int32(p)))
	}
}

func (w *writer) bitmask(bits []bool) {
	off := w.extend((len(bits) + 7) / 8)
	for i, b := range bits {
		if b {
			w.buf[off+i/8] |= 1 << (i % 8)
		}
	}
}

// reader consumes big-endian fields from a buffer.
type reader struct {
	buf []byte
	off int
}

// remaining is how many bytes are still unread.
func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) take(n int) ([]byte, error) {
	if r.off+n > len(r.buf) {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) i64() (int64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

func (r *reader) procID() (mid.ProcID, error) {
	v, err := r.u32()
	return mid.ProcID(int32(v)), err
}

// seqVecInto bulk-decodes len(v) big-endian sequence numbers into v.
func (r *reader) seqVecInto(v mid.SeqVector) error {
	raw, err := r.take(4 * len(v))
	if err != nil {
		return err
	}
	for i := range v {
		v[i] = mid.Seq(binary.BigEndian.Uint32(raw[4*i:]))
	}
	return nil
}

// procVecInto bulk-decodes len(v) big-endian process IDs into v.
func (r *reader) procVecInto(v []mid.ProcID) error {
	raw, err := r.take(4 * len(v))
	if err != nil {
		return err
	}
	for i := range v {
		v[i] = mid.ProcID(int32(binary.BigEndian.Uint32(raw[4*i:])))
	}
	return nil
}

// bitmaskInto bulk-decodes a packed bitmask into bits.
func (r *reader) bitmaskInto(bits []bool) error {
	n := len(bits)
	raw, err := r.take((n + 7) / 8)
	if err != nil {
		return err
	}
	// Reject set padding bits: the encoding is canonical so that
	// Marshal(Unmarshal(b)) == b for every accepted b.
	if pad := len(raw)*8 - n; pad > 0 && raw[len(raw)-1]>>(8-pad) != 0 {
		return fmt.Errorf("wire: non-canonical bitmask padding")
	}
	for i := range bits {
		bits[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return nil
}
