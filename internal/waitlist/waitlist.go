// Package waitlist implements the waiting list of the urcgc protocol: the
// buffer holding received messages whose causal dependencies are not yet
// satisfied. Each subrun every process reports to the coordinator, per
// sequence, the oldest mid still waiting (the paper's waiting_i vector);
// the coordinator's min over those reports, compared against max_processed,
// reveals sequences whose next message is lost forever, triggering the
// agreed destruction of the dependent messages.
package waitlist

import (
	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// List is a per-process waiting list. It is not safe for concurrent use.
type List struct {
	n    int
	byID map[mid.MID]*causal.Message
}

// New returns an empty waiting list for a group of n processes.
func New(n int) *List {
	return &List{n: n, byID: make(map[mid.MID]*causal.Message)}
}

// Add enters a message into the waiting list. Duplicates (same MID) are
// ignored and reported as false.
func (l *List) Add(m *causal.Message) bool {
	if _, dup := l.byID[m.ID]; dup {
		return false
	}
	l.byID[m.ID] = m
	return true
}

// Has reports whether a message with the given MID is waiting.
func (l *List) Has(id mid.MID) bool {
	_, ok := l.byID[id]
	return ok
}

// Remove deletes the message with the given MID, returning it if present.
func (l *List) Remove(id mid.MID) *causal.Message {
	m := l.byID[id]
	if m != nil {
		delete(l.byID, id)
	}
	return m
}

// Len returns the number of waiting messages.
func (l *List) Len() int { return len(l.byID) }

// NextReady returns a waiting message that is processable under tr, or nil.
// To keep runs reproducible it returns the ready message with the smallest
// (Proc, Seq) identifier.
func (l *List) NextReady(tr *causal.Tracker) *causal.Message {
	var best *causal.Message
	for _, m := range l.byID {
		if !tr.Ready(m) {
			continue
		}
		if best == nil || m.ID.Less(best.ID) {
			best = m
		}
	}
	return best
}

// OldestWaitingInto reports, per sequence, the smallest waiting sequence
// number (0 where nothing of that sequence waits) — the waiting_i vector a
// process sends to the coordinator each subrun. The caller provides the
// zeroed vector (the request it is building); sequences past its length are
// skipped.
func (l *List) OldestWaitingInto(v mid.SeqVector) {
	for id := range l.byID {
		if int(id.Proc) >= len(v) || id.Proc < 0 {
			continue
		}
		if v[id.Proc] == 0 || id.Seq < v[id.Proc] {
			v[id.Proc] = id.Seq
		}
	}
}

// MissingBefore returns, per sequence, the lowest sequence number that the
// process still needs to receive in order to unblock the oldest waiting
// message of that sequence, given the last-processed vector. Zero entries
// mean nothing of that sequence is waiting. This drives recovery requests.
func (l *List) MissingBefore(processed mid.SeqVector) mid.SeqVector {
	need := mid.NewSeqVector(l.n)
	for _, m := range l.byID {
		for _, d := range m.Deps {
			l.noteMissing(need, d, processed)
		}
		l.noteMissing(need, m.ID.Prev(), processed)
	}
	return need
}

// noteMissing lowers need[d.Proc] to the first message of d's sequence still
// to be received, if dependency d is unmet and that message is not already
// waiting here. The zero MID (no predecessor) and processes outside the
// vector are ignored.
func (l *List) noteMissing(need mid.SeqVector, d mid.MID, processed mid.SeqVector) {
	if d.IsZero() || d.Proc < 0 || int(d.Proc) >= len(processed) || int(d.Proc) >= len(need) {
		return
	}
	if processed[d.Proc] >= d.Seq {
		return // satisfied
	}
	first := processed[d.Proc] + 1
	if l.Has(mid.MID{Proc: d.Proc, Seq: first}) {
		return // already received, just not processable yet
	}
	if need[d.Proc] == 0 || first < need[d.Proc] {
		need[d.Proc] = first
	}
}

// DropDoomed removes every waiting message that can never be processed
// because it — or, transitively, one of its dependencies — is condemned
// under tr. Dropping a message (q, k) condemns the suffix (q, k...) in tr,
// since a sequence with a destroyed element can never progress past it;
// the removal therefore iterates to a fixpoint. The dropped messages are
// returned for accounting.
func (l *List) DropDoomed(tr *causal.Tracker) []*causal.Message {
	var dropped []*causal.Message
	for {
		var victim *causal.Message
		for _, m := range l.byID {
			if tr.Doomed(m) {
				if victim == nil || m.ID.Less(victim.ID) {
					victim = m
				}
			}
		}
		if victim == nil {
			return dropped
		}
		delete(l.byID, victim.ID)
		// Ignore the error: the suffix may already be condemned more widely.
		_ = tr.Condemn(victim.ID.Proc, victim.ID.Seq)
		dropped = append(dropped, victim)
	}
}

// DropSender removes every waiting message of q's sequence — the local half
// of a join adoption: copies buffered from q's old incarnation are stale
// (any of them still needed is re-fetched through recovery against the
// decision's catch-up targets), and keeping them would collide with the
// sequence numbers the rejoined member reissues. Returns how many dropped.
func (l *List) DropSender(q mid.ProcID) int {
	dropped := 0
	for id := range l.byID {
		if id.Proc == q {
			delete(l.byID, id)
			dropped++
		}
	}
	return dropped
}

// DropStale removes every waiting message whose sequence position is at or
// below the processed vector — duplicates made obsolete by a fast-forward
// (a Compacted answer jumped the processed frontier over them). Left in
// place they would be re-examined as ready and crash the contiguity check.
func (l *List) DropStale(processed mid.SeqVector) int {
	dropped := 0
	for id := range l.byID {
		if int(id.Proc) < len(processed) && id.Proc >= 0 && id.Seq <= processed[id.Proc] {
			delete(l.byID, id)
			dropped++
		}
	}
	return dropped
}

// All returns the waiting messages in an unspecified order. Intended for
// tests and trace dumps.
func (l *List) All() []*causal.Message {
	out := make([]*causal.Message, 0, len(l.byID))
	for _, m := range l.byID {
		out = append(out, m)
	}
	return out
}
