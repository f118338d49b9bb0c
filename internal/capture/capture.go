// Package capture is the runtime's frame-level flight recorder: a bounded
// ring of raw wire frames — ingress and egress — each tagged with a
// monotonic timestamp, direction, peer, group and a verdict (delivered, a
// discard cause from the reader's taxonomy, or an injected fault with its
// kind). Where metrics count what happened and lifecycle spans time it, the
// capture ring keeps the evidence: the bytes themselves, joinable across
// members by (group, MID) and replayable offline through fresh protocol
// entities (internal/replay), so a live anomaly becomes a reproducible
// artifact instead of a counter.
//
// Like obs and lifecycle, the recorder is nil-gated: a nil *Ring is a valid
// disabled recorder, every method on it returns immediately, and the
// disabled hot path stays allocation-free (pinned by AllocsPerRun guards).
//
// Frames are stored without the group envelope — the record's Peer and
// Group fields carry what the envelope would, which lets the UDP runtime
// (which strips the envelope on receive) and the in-process mesh (which
// never frames one) share one record shape. Records whose verdict is a
// parse failure (short/badsrc) keep the raw evidence bytes instead.
package capture

import (
	"sync"
	"time"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
)

// Dir is the direction of a captured frame.
type Dir uint8

const (
	// DirMark is a frameless marker record (e.g. the member's own crash).
	DirMark Dir = iota
	// DirIngress is a frame arriving at this member.
	DirIngress
	// DirEgress is a frame leaving this member.
	DirEgress
)

// String renders the direction.
func (d Dir) String() string {
	switch d {
	case DirMark:
		return "mark"
	case DirIngress:
		return "in"
	case DirEgress:
		return "out"
	default:
		return "dir?"
	}
}

// Verdict is what the runtime did with a captured frame. The ingress
// verdicts mirror the datagram validator's discard taxonomy one-for-one, so
// the topics_drop_* counters are joinable to dumped frames.
type Verdict uint8

const (
	// Delivered: the frame was decoded and handed to the protocol loop.
	Delivered Verdict = iota
	// Sent: the frame left this member with a clean fault verdict.
	Sent
	// DropShort: the envelope did not parse (topics_drop_envelope_total).
	DropShort
	// DropBadSrc: the claimed source is outside the group
	// (topics_drop_badsrc_total).
	DropBadSrc
	// DropDecode: the PDU body did not decode (topics_drop_decode_total).
	DropDecode
	// DropOversize: the frame exceeded the datagram limit, in either
	// direction (topics_drop_oversize_total / topics_send_oversize_total).
	DropOversize
	// DropGroup: the frame addressed a group this member does not host
	// (topics_drop_group_total), a non-zero group on a single-group member.
	DropGroup
	// DropInbox: the frame was valid but the protocol inbox (or shard
	// inbox) was full — an overload omission.
	DropInbox
	// FaultDrop: a fault injector (or a crashed receiver absorbing nothing)
	// destroyed the frame; Fault names the kind.
	FaultDrop
	// FaultDelay: an injected delay held the frame; it was still delivered
	// (or shipped) later.
	FaultDelay
	// FaultDup: injected duplication; the frame was delivered 1+Dup times.
	FaultDup
	// Crash marks the member's own fail-stop (a DirMark record): every
	// later frame on this ring happened while the member was dead.
	Crash

	nVerdicts
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Delivered:
		return "delivered"
	case Sent:
		return "sent"
	case DropShort:
		return "drop-short"
	case DropBadSrc:
		return "drop-badsrc"
	case DropDecode:
		return "drop-decode"
	case DropOversize:
		return "drop-oversize"
	case DropGroup:
		return "drop-group"
	case DropInbox:
		return "drop-inbox"
	case FaultDrop:
		return "fault-drop"
	case FaultDelay:
		return "fault-delay"
	case FaultDup:
		return "fault-dup"
	case Crash:
		return "crash"
	default:
		return "verdict?"
	}
}

// Reached reports whether a frame with this verdict reached the protocol
// entity (ingress) or the wire (egress) — the replayer feeds exactly these.
func (v Verdict) Reached() bool {
	return v == Delivered || v == Sent || v == FaultDelay || v == FaultDup
}

// Classify maps a fault-injector action onto the verdict of a frame that
// would otherwise be ok (Delivered on ingress, Sent on egress): an injected
// drop wins, then delay, then duplication; a clean action keeps ok.
func Classify(ok Verdict, act faultrt.Action) Verdict {
	switch {
	case act.Drop:
		return FaultDrop
	case act.Delay > 0:
		return FaultDelay
	case act.Dup > 0:
		return FaultDup
	}
	return ok
}

// Record is one captured frame (or marker).
type Record struct {
	// Seq is the ring-assigned capture sequence number, monotonically
	// increasing from 0 and never reused; evicted records leave a gap at
	// the front. Warn lines reference it as "capture #N".
	Seq uint64
	// AtNs is the monotonic time of the capture in nanoseconds since the
	// ring was created (immune to wall-clock steps).
	AtNs int64
	// Dir is the frame direction; DirMark records carry no frame.
	Dir Dir
	// Verdict is what the runtime did with the frame.
	Verdict Verdict
	// Fault carries the injected fault kinds when Verdict is Fault*.
	Fault faultrt.KindSet
	// Peer is the other end: the claimed source for ingress, the
	// destination for egress, mid.None for a broadcast or a mark.
	Peer mid.ProcID
	// Group is the group id the frame addressed.
	Group uint32
	// Frame is the marshaled PDU body (no envelope — Peer and Group carry
	// that), or the raw evidence bytes for parse-failure verdicts, or nil
	// for marks and metadata-only records.
	Frame []byte
}

// Options configure a ring. Node and the protocol shape (N, K, R,
// SelfExclusion) are stamped into every dump so the replayer can rebuild
// the member's protocol entity from the artifact alone.
type Options struct {
	Node          mid.ProcID
	N, K, R       int
	SelfExclusion bool
	// MaxFrames bounds retained records (default 8192).
	MaxFrames int
	// MaxBytes bounds retained frame bytes (default 16MB).
	MaxBytes int
}

// Ring is a bounded flight recorder of wire frames. All methods are safe
// for concurrent use and valid on a nil receiver (disabled, free).
type Ring struct {
	opts      Options
	startWall time.Time
	start     time.Time // monotonic base for AtNs

	mu           sync.Mutex
	recs         []Record // circular; cap == opts.MaxFrames
	head         int      // index of the oldest record
	count        int
	bytes        int
	seq          uint64
	evicted      uint64
	evictedBytes uint64
}

// New builds an enabled ring. The monotonic clock starts now.
func New(o Options) *Ring {
	if o.MaxFrames <= 0 {
		o.MaxFrames = 8192
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 16 << 20
	}
	now := time.Now()
	return &Ring{opts: o, startWall: now, start: now}
}

// Enabled reports whether the ring records anything.
func (r *Ring) Enabled() bool { return r != nil }

// Record captures one frame. The frame bytes are copied (outside the
// lock), so the caller's buffer is immediately reusable. It returns the
// assigned capture sequence number; on a nil ring it returns 0 and does
// nothing, without allocating.
func (r *Ring) Record(dir Dir, group uint32, peer mid.ProcID, v Verdict, fault faultrt.KindSet, frame []byte) uint64 {
	if r == nil {
		return 0
	}
	var cp []byte
	if len(frame) > 0 {
		cp = append(make([]byte, 0, len(frame)), frame...)
	}
	at := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	seq := r.seq
	r.seq++
	if r.recs == nil {
		r.recs = make([]Record, r.opts.MaxFrames)
	}
	if r.count == len(r.recs) {
		r.evictLocked()
	}
	slot := (r.head + r.count) % len(r.recs)
	r.recs[slot] = Record{Seq: seq, AtNs: at, Dir: dir, Verdict: v, Fault: fault,
		Peer: peer, Group: group, Frame: cp}
	r.count++
	r.bytes += len(cp)
	for r.bytes > r.opts.MaxBytes && r.count > 1 {
		r.evictLocked()
	}
	r.mu.Unlock()
	return seq
}

// Mark records a frameless marker (e.g. the member's own crash).
func (r *Ring) Mark(v Verdict, fault faultrt.KindSet) uint64 {
	return r.Record(DirMark, 0, mid.None, v, fault, nil)
}

// evictLocked drops the oldest record. Callers hold r.mu.
func (r *Ring) evictLocked() {
	old := &r.recs[r.head]
	r.bytes -= len(old.Frame)
	r.evictedBytes += uint64(len(old.Frame))
	old.Frame = nil
	r.head = (r.head + 1) % len(r.recs)
	r.count--
	r.evicted++
}

// Len returns how many records the ring currently retains.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Node returns the member identity stamped into dumps (mid.None on nil).
func (r *Ring) Node() mid.ProcID {
	if r == nil {
		return mid.None
	}
	return r.opts.Node
}

// Snapshot copies the retained records into a Dump. Frame bytes are
// aliased, not copied — records already own their slices and are never
// mutated after insertion, only evicted wholesale. Nil ring → nil dump.
func (r *Ring) Snapshot() *Dump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d := &Dump{
		Version:       FormatVersion,
		Node:          r.opts.Node,
		N:             r.opts.N,
		K:             r.opts.K,
		R:             r.opts.R,
		SelfExclusion: r.opts.SelfExclusion,
		StartWall:     r.startWall,
		Evicted:       r.evicted,
		EvictedBytes:  r.evictedBytes,
		Records:       make([]Record, 0, r.count),
	}
	for i := 0; i < r.count; i++ {
		d.Records = append(d.Records, r.recs[(r.head+i)%len(r.recs)])
	}
	return d
}
