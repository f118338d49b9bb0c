package wire

import (
	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// This file holds what the borrow rule needs of the codec (DESIGN.md §7 rule
// 5): a PDU handed to a transport or to the protocol's Recv is lent for the
// call, so whoever keeps one clones it, whoever owns a record copies into it,
// and the live readers recycle the records they decode into.

// Sized reports whether every vector of d has exactly n entries.
func (d *Decision) Sized(n int) bool {
	return len(d.MaxProcessed) == n && len(d.MostUpdated) == n && len(d.MinWaiting) == n &&
		len(d.CleanTo) == n && len(d.Attempts) == n && len(d.Alive) == n && len(d.Covered) == n
}

// CopyFrom overwrites d with o, into d's own vectors: o must be Sized to them.
// It is how an owner keeps a decision it was only lent.
func (d *Decision) CopyFrom(o *Decision) {
	d.Subrun, d.Coord, d.FullGroup = o.Subrun, o.Coord, o.FullGroup
	copy(d.MaxProcessed, o.MaxProcessed)
	copy(d.MostUpdated, o.MostUpdated)
	copy(d.MinWaiting, o.MinWaiting)
	copy(d.CleanTo, o.CleanTo)
	copy(d.Attempts, o.Attempts)
	copy(d.Alive, o.Alive)
	copy(d.Covered, o.Covered)
}

// Clone returns a copy of p for a holder that outlives the call it was lent
// p for — the simulator's network, which queues PDUs by reference, and test
// doubles that record what was sent. Records and vectors are copied; message
// payloads and dependency lists are shared, as they are between a message and
// every PDU that ever carries it (nobody writes to them). The baseline
// protocols' PDUs, which their senders build fresh, are returned as they are.
func Clone(p PDU) PDU {
	switch v := p.(type) {
	case *Data:
		cp := *v
		return &cp
	case *DataBatch:
		return &DataBatch{Msgs: append([]causal.Message(nil), v.Msgs...)}
	case *Request:
		cp := *v
		cp.LastProcessed, cp.Waiting, cp.Prev = v.LastProcessed.Clone(), v.Waiting.Clone(), v.Prev.Clone()
		return &cp
	case *Decision:
		return v.Clone()
	case *Recover:
		return &Recover{Requester: v.Requester, Wants: append([]WantRange(nil), v.Wants...)}
	case *Retransmit:
		return &Retransmit{
			Responder: v.Responder,
			Msgs:      append([]*causal.Message(nil), v.Msgs...),
			Compacted: append([]WantRange(nil), v.Compacted...),
		}
	case *Join:
		cp := *v
		return &cp
	case *JoinState:
		cp := *v
		cp.Stable, cp.Processed, cp.Prev = v.Stable.Clone(), v.Processed.Clone(), v.Prev.Clone()
		return &cp
	}
	return p
}

// freeListDepth bounds how many records of a kind one loop parks: a subrun
// puts at most n-1 Requests, one Decision and a few data frames per hosted
// group in flight, and a list that runs dry only costs the allocation it would
// have saved.
const freeListDepth = 16

// FreeList is the memory a loop's decoder takes from: a leaky free list of the
// records it decodes into, and the Arena every decoded message is carved from.
// The decoder takes a Request, Decision, DataBatch or Retransmit record from it
// (FreeList.Unmarshal), the loop hands the record back once Recv has returned
// (Put). Both ends are non-blocking — an empty list allocates, a full one
// drops the record for the collector — so nothing is ever built ahead of need.
// It is a set of buffered channels rather than a sync.Pool because a record
// cycles between exactly two goroutines: a Pool parks what the loop puts in
// that P's private slot, where the reader on another P never finds it. The
// messages themselves never come back: the protocol keeps them, and their
// chunks are the collector's (DESIGN.md §7 rule 6). The nil *FreeList is the
// allocate-everything source behind the plain Unmarshal.
type FreeList struct {
	reqs    chan *Request
	decs    chan *Decision
	batches chan *DataBatch
	resends chan *Retransmit

	// arena is taken from by Unmarshal only, on the list's one decoding
	// goroutine; Put never touches it.
	arena Arena

	// Poison makes Put overwrite every record it takes back with garbage
	// (see Poison), so that anything still reading a released record shows up
	// as wrong behaviour — or as a data race under the detector — instead of
	// going unnoticed. Set before the list is shared; tests only.
	Poison bool
}

// NewFreeList returns an empty list.
func NewFreeList() *FreeList {
	return &FreeList{
		reqs:    make(chan *Request, freeListDepth),
		decs:    make(chan *Decision, freeListDepth),
		batches: make(chan *DataBatch, freeListDepth),
		resends: make(chan *Retransmit, freeListDepth),
	}
}

// take returns a record parked in c, or a new one when there is none (or no
// channel: the zero FreeList parks nothing).
func take[T any](c chan *T) *T {
	select {
	case r := <-c:
		return r
	default:
		return new(T)
	}
}

// park parks r in c unless c is full.
func park[T any](c chan *T, r *T) {
	select {
	case c <- r:
	default:
	}
}

// Put hands a Request (its embedded decision stays attached to it), a
// Decision, or the DataBatch or Retransmit record around received messages
// back for reuse; a Data record (the protocol keeps it as the message), any
// other kind, and any PDU on a nil list are left alone. The caller must hold
// the only reference to the record: it is rewritten by a later decode. The
// messages a data record carried are not: Put drops its references to them
// and never writes to them.
func (f *FreeList) Put(p PDU) {
	if f == nil {
		return
	}
	switch v := p.(type) {
	case *Request:
		if f.Poison {
			prev := v.Prev
			if prev != nil {
				Poison(prev)
			}
			Poison(v)
			v.Prev = prev
		}
		park(f.reqs, v)
	case *Decision:
		if f.Poison {
			Poison(v)
		}
		park(f.decs, v)
	case *DataBatch:
		v.Msgs = nil
		park(f.batches, v)
	case *Retransmit:
		if f.Poison {
			Poison(v)
		}
		clear(v.Msgs)
		v.Msgs = v.Msgs[:0]
		park(f.resends, v)
	}
}

// Poison values: no run of the protocol produces them, and each fails the
// first check it meets (a process outside every group, a subrun long past).
const (
	poisonProc   mid.ProcID = -0x5EED
	poisonSeq    mid.Seq    = 0xDEADBEEF
	poisonSubrun int64      = -0x5EED5EED
)

// Poison overwrites p's own fields and vectors with garbage, standing in for
// the next use of a recycled record: the tests of the borrow rule call it the
// moment a lent PDU goes back, so a pointer kept past the call reads nonsense.
// It stays inside what p owns — message payloads and dependency lists belong
// to the messages, and an embedded Prev to whoever lent it, so Poison only
// drops those references. A DataBatch owns its message headers only on the
// sending side (a process builds its frame in place); a received one's are the
// arena's, which is why Put never poisons a DataBatch.
func Poison(p PDU) {
	junk := causal.Message{ID: mid.MID{Proc: poisonProc, Seq: poisonSeq}}
	fill := func(v mid.SeqVector) {
		for i := range v {
			v[i] = poisonSeq
		}
	}
	wants := func(w []WantRange) {
		for i := range w {
			w[i] = WantRange{Proc: poisonProc, From: poisonSeq, To: poisonSeq}
		}
	}
	switch v := p.(type) {
	case *Data:
		v.Msg = junk
	case *DataBatch:
		for i := range v.Msgs {
			v.Msgs[i] = junk
		}
	case *Request:
		v.Sender, v.Subrun, v.Join, v.Prev = poisonProc, poisonSubrun, true, nil
		fill(v.LastProcessed)
		fill(v.Waiting)
	case *Decision:
		v.Subrun, v.Coord, v.FullGroup = poisonSubrun, poisonProc, true
		fill(v.MaxProcessed)
		fill(v.MinWaiting)
		fill(v.CleanTo)
		for i := range v.MostUpdated {
			v.MostUpdated[i] = poisonProc
		}
		for i := range v.Attempts {
			v.Attempts[i] = 0xFF
		}
		for i := range v.Alive {
			v.Alive[i] = i%2 == 0
		}
		for i := range v.Covered {
			v.Covered[i] = true
		}
	case *Recover:
		v.Requester = poisonProc
		wants(v.Wants)
	case *Retransmit:
		v.Responder = poisonProc
		clear(v.Msgs)
		wants(v.Compacted)
	case *Join:
		v.Joiner = poisonProc
	case *JoinState:
		v.Sponsor, v.Resume, v.Prev = poisonProc, poisonSeq, nil
		v.Stable, v.Processed = nil, nil
	}
}
