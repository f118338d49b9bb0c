// Package history implements the urcgc history buffer (Section 4): a table
// with one entry per group member holding, in sequence order, the processed
// messages that member generated. The history serves two purposes:
//
//   - recovery: a process missing messages asks a more updated peer, which
//     answers out of its history;
//   - ordering bookkeeping: the i-th entry describes the dependence among
//     p_i's own messages, while cross-sequence dependence travels inside
//     each message.
//
// Messages are purged only when stable — processed by every active process —
// which the coordinator decides and announces in the clean_to vector of its
// decision. Because stability is a global agreement, all histories stay
// roughly the same length; Fig. 6 of the paper plots exactly this length,
// and Len/PerSender expose it.
package history

import (
	"errors"
	"fmt"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// ErrCompacted is the sentinel for requests that reach into the purged
// stable prefix of a sequence. Before it existed, Get answered nil and Range
// silently clipped — indistinguishable from "never stored", so a recovery
// retry serving a joiner handed back partial data as if it were everything.
// Errors carrying it are *CompactedError values; test with errors.Is.
var ErrCompacted = errors.New("history: requested range compacted")

// CompactedError reports that a requested sequence range reaches at or
// below the purged (uniformly stable) prefix, naming where the retained
// suffix begins so the caller can fast-forward or re-aim its want.
type CompactedError struct {
	Proc mid.ProcID
	// Base is the highest purged sequence number: every message of the
	// sequence with seq <= Base is compacted here.
	Base mid.Seq
}

// Error implements error.
func (e *CompactedError) Error() string {
	return fmt.Sprintf("history: p%d compacted through seq %d", e.Proc, e.Base)
}

// Is makes errors.Is(err, ErrCompacted) succeed for CompactedError values.
func (e *CompactedError) Is(target error) bool { return target == ErrCompacted }

// entry holds one sender's retained suffix of messages. The retained
// messages are msgs[start:]; msgs[start] has sequence number base+1, so the
// retained range is [base+1, base+len(msgs)-start]. The dead prefix
// msgs[:start] holds nil slots: purging nils the slot (so no purged
// *Message is ever pinned) and advances start, deferring the O(live)
// compaction until the dead prefix dominates the backing array.
type entry struct {
	base  mid.Seq
	start int
	msgs  []*causal.Message
	peak  int // the most retained at once since the last compaction
}

// live returns the retained suffix.
func (e *entry) live() []*causal.Message { return e.msgs[e.start:] }

// keepCap is the capacity an entry never shrinks below: under it the array
// is half a kilobyte and not worth an allocation to give back.
const keepCap = 64

// purge releases the oldest drop retained messages: their slots are nilled at
// once, so a purged message is never pinned, and start moves past them. Once
// the dead prefix is half the slice the live part is copied down to the front
// of the same array, which the entry keeps: a sequence that is stored to and
// cleaned in turn — every sequence, in the steady state — never allocates,
// and the copying stays O(1) per purged message. Only an array that a burst
// left more than three quarters idle (and larger than keepCap) is traded for
// a smaller one: half its size, but never below the most the entry retained
// since the previous compaction, so a suffix that swings between a few
// messages and most of the array finds room when it swings back and does not
// trade arrays every cycle, while a burst that is over is still given back.
func (e *entry) purge(drop int) {
	e.peak = max(e.peak, len(e.msgs)-e.start)
	clear(e.msgs[e.start : e.start+drop])
	e.start += drop
	if e.start*2 < len(e.msgs) {
		return
	}
	live := copy(e.msgs, e.msgs[e.start:])
	clear(e.msgs[live:])
	e.msgs, e.start = e.msgs[:live], 0
	if c, keep := cap(e.msgs), max(cap(e.msgs)/2, e.peak, keepCap); live < c/4 && keep < c {
		e.msgs = append(make([]*causal.Message, 0, keep), e.msgs...)
	}
	e.peak = live
}

// History is the per-process history buffer. It is not safe for concurrent
// use; the protocol owns it from a single goroutine.
type History struct {
	entries []entry
	total   int
}

// New returns an empty history for a group of n processes.
func New(n int) *History {
	return &History{entries: make([]entry, n)}
}

// N returns the group cardinality the history was sized for.
func (h *History) N() int { return len(h.entries) }

// Store saves a processed message. Messages of one sequence must be stored
// contiguously in sequence order — the protocol processes them that way —
// and storing out of order is a bug, reported as an error.
func (h *History) Store(m *causal.Message) error {
	p := m.ID.Proc
	if int(p) >= len(h.entries) || p < 0 {
		return fmt.Errorf("history: message %v from process outside group of %d", m.ID, len(h.entries))
	}
	e := &h.entries[p]
	want := e.base + mid.Seq(len(e.live())) + 1
	if m.ID.Seq != want {
		return fmt.Errorf("history: storing %v out of order (next expected seq %d)", m.ID, want)
	}
	e.msgs = append(e.msgs, m)
	h.total++
	return nil
}

// Get returns the retained message (q, s). A request at or below the purged
// prefix answers a *CompactedError naming the purge base — the message
// existed here and was released as stable, which is different news than
// "never stored" (nil, nil): the caller can treat everything up to Base as
// uniformly delivered instead of waiting for bytes nobody retains.
func (h *History) Get(q mid.ProcID, s mid.Seq) (*causal.Message, error) {
	if int(q) >= len(h.entries) || q < 0 || s == 0 {
		return nil, nil
	}
	e := &h.entries[q]
	if s <= e.base {
		return nil, &CompactedError{Proc: q, Base: e.base}
	}
	if s > e.base+mid.Seq(len(e.live())) {
		return nil, nil
	}
	return e.msgs[e.start+int(s-e.base)-1], nil
}

// Range returns the retained messages (q, from..to), inclusive, clipped to
// the retained range, in sequence order. When the request reaches into the
// purged prefix (from <= Base(q)) the retained overlap is still returned,
// but alongside a *CompactedError naming the base, so the caller knows the
// answer has a stable gap at the front rather than mistaking the clip for
// the whole range.
func (h *History) Range(q mid.ProcID, from, to mid.Seq) ([]*causal.Message, error) {
	if int(q) >= len(h.entries) || q < 0 || to < from {
		return nil, nil
	}
	e := &h.entries[q]
	var gap error
	if from <= e.base && from >= 1 {
		gap = &CompactedError{Proc: q, Base: e.base}
		from = e.base + 1
	}
	if hi := e.base + mid.Seq(len(e.live())); to > hi {
		to = hi
	}
	if to < from {
		return nil, gap
	}
	out := make([]*causal.Message, 0, to-from+1)
	for s := from; s <= to; s++ {
		out = append(out, e.msgs[e.start+int(s-e.base)-1])
	}
	return out, gap
}

// MaxSeq returns the highest sequence number of q ever stored (including
// purged prefixes), i.e. base + retained count.
func (h *History) MaxSeq(q mid.ProcID) mid.Seq {
	if int(q) >= len(h.entries) || q < 0 {
		return 0
	}
	e := &h.entries[q]
	return e.base + mid.Seq(len(e.live()))
}

// Base returns the highest purged (stable) sequence number of q.
func (h *History) Base(q mid.ProcID) mid.Seq {
	if int(q) >= len(h.entries) || q < 0 {
		return 0
	}
	return h.entries[q].base
}

// CleanTo purges, for every sender q, the messages with sequence number
// <= stable[q]. It never purges beyond what is stored and never un-purges.
// It returns the number of messages released.
//
// Purged messages are never pinned and the backing arrays are kept: see
// entry.purge.
func (h *History) CleanTo(stable mid.SeqVector) int {
	released := 0
	for q := range h.entries {
		if q >= len(stable) {
			break
		}
		e := &h.entries[q]
		target := stable[q]
		if hi := e.base + mid.Seq(len(e.live())); target > hi {
			target = hi
		}
		if target <= e.base {
			continue
		}
		drop := int(target - e.base)
		e.purge(drop)
		e.base = target
		released += drop
		h.total -= drop
	}
	return released
}

// InstallBases sets every sender's purge base to the given stability
// watermark — the joiner's bootstrap: the history starts logically "already
// cleaned" through the watermark, so storing resumes at watermark+1 per
// sequence. Valid only on an empty history; installing over retained
// messages would corrupt the base/seq invariant.
func (h *History) InstallBases(watermark mid.SeqVector) error {
	if h.total != 0 {
		return fmt.Errorf("history: installing bases over %d retained messages", h.total)
	}
	for q := range h.entries {
		e := &h.entries[q]
		if len(e.msgs) != 0 {
			return fmt.Errorf("history: installing bases over non-empty entry p%d", q)
		}
		if q < len(watermark) && watermark[q] > e.base {
			e.base = watermark[q]
		}
	}
	return nil
}

// Skip advances sender q's purge base to seq, releasing any retained
// messages at or below it — the receiver-side half of a Compacted
// fast-forward: the range was purged as uniformly stable everywhere alive,
// so this history will never store it. Unlike CleanTo, the base may jump
// past the stored frontier (the skipped messages were never received here).
// Moving backwards is a no-op. Returns the number of messages released.
func (h *History) Skip(q mid.ProcID, seq mid.Seq) int {
	if int(q) >= len(h.entries) || q < 0 {
		return 0
	}
	e := &h.entries[q]
	if seq <= e.base {
		return 0
	}
	// A partial purge of the retained suffix, exactly like CleanTo — or the
	// jump clears (or overshoots) everything retained.
	released := len(e.live())
	if hi := e.base + mid.Seq(released); seq < hi {
		released = int(seq - e.base)
	}
	e.purge(released)
	e.base = seq
	h.total -= released
	return released
}

// Len returns the number of messages currently retained across all senders.
// This is the quantity plotted in Fig. 6 of the paper.
func (h *History) Len() int { return h.total }

// PerSender returns the retained count per sender.
func (h *History) PerSender() []int {
	out := make([]int, len(h.entries))
	for i := range h.entries {
		out[i] = len(h.entries[i].live())
	}
	return out
}

// Stored returns a vector with, per sender, the highest stored sequence
// number. It equals the process's last_processed vector when every processed
// message is stored, which the protocol guarantees.
func (h *History) Stored() mid.SeqVector {
	v := mid.NewSeqVector(len(h.entries))
	for q := range h.entries {
		v[q] = h.MaxSeq(mid.ProcID(q))
	}
	return v
}
