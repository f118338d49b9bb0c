// Package causal implements the causal dependency machinery of Definition
// 3.1 of the paper: messages carry explicit dependency labels, sequences are
// rooted at processes, and a message is processable only after every message
// it depends on has been processed.
//
// Two interpretations are supported:
//
//   - The general interpretation lets a process root any number of
//     concurrent sequences (Definition 3.1 verbatim).
//   - The intermediate interpretation — the one the protocol runs with —
//     restricts each process to rooting a single sequence, so every message
//     implicitly depends on its sender's previous message and explicitly on
//     at most one message per other sequence. This bounds the dependency
//     list by the group cardinality n.
//
// The package also tracks condemned messages: when the only holders of a
// message crash, the group agrees to destroy the messages that depend on it
// (Section 4); Tracker mirrors that rule locally.
package causal

import (
	"fmt"

	"urcgc/internal/mid"
)

// Message is the protocol-level view of a user message: its identifier, its
// explicit dependency labels, and an opaque payload.
type Message struct {
	ID      mid.MID
	Deps    mid.DepList
	Payload []byte
}

// Clone returns a deep copy of the message.
func (m *Message) Clone() *Message {
	cp := &Message{ID: m.ID, Deps: m.Deps.Clone()}
	if m.Payload != nil {
		cp.Payload = append([]byte(nil), m.Payload...)
	}
	return cp
}

// EffectiveDeps returns the full dependency set of m under the intermediate
// interpretation: the explicit labels plus the implicit dependency on the
// sender's previous message, canonicalized into a fresh list. It is for
// offline callers that want the set itself (Graph); the hot-path verdicts
// (Ready, Doomed, Process) walk Deps and ID.Prev() in place and never build
// it.
func (m *Message) EffectiveDeps() mid.DepList {
	deps := m.Deps.Clone()
	if prev := m.ID.Prev(); !prev.IsZero() && !deps.Covers(prev) {
		deps = append(deps, prev)
	}
	return deps.Canonical()
}

// Validate checks the structural invariants a message must satisfy before
// entering the protocol: a real MID of a real process, and no dependency on
// a negative process, on itself, on a later message of any sequence than is
// expressible, or on its own sequence at or beyond its own position (which
// would create a cycle). Group membership (Proc < n) is the caller's check:
// a message does not know its group's cardinality.
func (m *Message) Validate() error {
	if m.ID.IsZero() {
		return fmt.Errorf("causal: message has zero MID")
	}
	if m.ID.Proc < 0 {
		return fmt.Errorf("causal: message %v from a negative process", m.ID)
	}
	for _, d := range m.Deps {
		if d.IsZero() {
			return fmt.Errorf("causal: %v depends on zero MID", m.ID)
		}
		if d.Proc < 0 {
			return fmt.Errorf("causal: %v depends on negative process %d", m.ID, d.Proc)
		}
		if d.Proc == m.ID.Proc && d.Seq >= m.ID.Seq {
			return fmt.Errorf("causal: %v depends on %v of its own sequence at or after itself", m.ID, d)
		}
	}
	return nil
}

// satisfied reports whether dependency d is met by processed. A sequence is
// processed contiguously, so (q,s) is satisfied exactly when
// processed[q] >= s; a process outside the vector is never satisfied.
func satisfied(d mid.MID, processed mid.SeqVector) bool {
	return d.Proc >= 0 && int(d.Proc) < len(processed) && processed[d.Proc] >= d.Seq
}

// Ready reports whether m is processable given processed, the vector of
// last-processed sequence numbers per sender: every explicit label and the
// implicit predecessor are satisfied. It walks the message in place — no
// list is built. (A predecessor that a label covers is implied by that
// label, so testing both gives the verdict EffectiveDeps would.)
func Ready(m *Message, processed mid.SeqVector) bool {
	for _, d := range m.Deps {
		if !satisfied(d, processed) {
			return false
		}
	}
	prev := m.ID.Prev()
	return prev.IsZero() || satisfied(prev, processed)
}

// MissingDeps returns the effective dependencies of m that processed does
// not yet satisfy, in canonical order.
func MissingDeps(m *Message, processed mid.SeqVector) mid.DepList {
	var miss mid.DepList
	for _, d := range m.Deps {
		if !satisfied(d, processed) {
			miss = append(miss, d)
		}
	}
	if prev := m.ID.Prev(); !prev.IsZero() && !satisfied(prev, processed) && !miss.Covers(prev) {
		miss = append(miss, prev)
	}
	return miss.Canonical()
}

// Tracker maintains a process's causal processing state: the contiguous
// last-processed vector and the set of condemned sequence suffixes.
// A condemned suffix (q, from) means every message (q, s) with s >= from is
// destroyed: it can never be processed, and any message depending on one of
// them is destroyed transitively.
type Tracker struct {
	processed mid.SeqVector
	condemned mid.SeqVector // condemned[q] = smallest condemned seq of q; 0 = none
}

// NewTracker returns a Tracker for a group of n processes with nothing
// processed and nothing condemned.
func NewTracker(n int) *Tracker {
	t := &Tracker{
		processed: mid.NewSeqVector(n),
		condemned: mid.NewSeqVector(n),
	}
	for i := range t.condemned {
		t.condemned[i] = 0
	}
	return t
}

// Processed returns the last-processed vector. The caller must not modify it.
func (t *Tracker) Processed() mid.SeqVector { return t.processed }

// LastProcessed returns the last processed sequence number of process q's
// sequence, or 0 if none.
func (t *Tracker) LastProcessed(q mid.ProcID) mid.Seq {
	if int(q) >= len(t.processed) || q < 0 {
		return 0
	}
	return t.processed[q]
}

// Ready reports whether m is processable now: all effective dependencies
// processed and neither m nor any dependency condemned.
func (t *Tracker) Ready(m *Message) bool {
	return !t.Doomed(m) && Ready(m, t.processed)
}

// Doomed reports whether m can never be processed: m itself or one of its
// effective dependencies is condemned. The implicit predecessor needs no
// test of its own — condemnation covers a suffix, so a condemned
// predecessor means m is condemned too.
func (t *Tracker) Doomed(m *Message) bool {
	if t.IsCondemned(m.ID) {
		return true
	}
	for _, d := range m.Deps {
		if t.IsCondemned(d) {
			return true
		}
	}
	return false
}

// Process records that m has been processed. It returns an error if m was
// not Ready: processing out of causal order is a protocol bug, not a runtime
// condition, and the simulator tests rely on this being loud.
func (t *Tracker) Process(m *Message) error {
	if t.Doomed(m) {
		return fmt.Errorf("causal: processing condemned message %v", m.ID)
	}
	if !Ready(m, t.processed) {
		return fmt.Errorf("causal: processing %v before its dependencies (missing %v)", m.ID, MissingDeps(m, t.processed))
	}
	if m.ID.Proc < 0 || int(m.ID.Proc) >= len(t.processed) {
		return fmt.Errorf("causal: message %v from process outside group of %d", m.ID, len(t.processed))
	}
	if t.processed[m.ID.Proc] != m.ID.Seq-1 {
		return fmt.Errorf("causal: %v breaks sequence contiguity (last processed %d)", m.ID, t.processed[m.ID.Proc])
	}
	t.processed[m.ID.Proc] = m.ID.Seq
	return nil
}

// Condemn destroys the suffix of q's sequence starting at from. Later calls
// with a higher from for the same sequence are ignored; earlier ones widen
// the condemned range. Condemning at or below the processed position is
// rejected: a processed message is never destroyed.
func (t *Tracker) Condemn(q mid.ProcID, from mid.Seq) error {
	if int(q) >= len(t.condemned) || q < 0 {
		return fmt.Errorf("causal: condemn of unknown process %d", q)
	}
	if from == 0 {
		return fmt.Errorf("causal: condemn from seq 0")
	}
	if t.processed[q] >= from {
		return fmt.Errorf("causal: condemning %v already processed locally (last %d)", mid.MID{Proc: q, Seq: from}, t.processed[q])
	}
	if cur := t.condemned[q]; cur == 0 || from < cur {
		t.condemned[q] = from
	}
	return nil
}

// Uncondemn clears the condemned suffix of q's sequence — the local half of
// a join adoption: the rejoined member's sequence resumes, so the group's
// agreement to destroy its suffix no longer applies to the messages it will
// now reissue. A sequence with nothing condemned is a no-op.
func (t *Tracker) Uncondemn(q mid.ProcID) {
	if q >= 0 && int(q) < len(t.condemned) {
		t.condemned[q] = 0
	}
}

// Install replaces the processed vector wholesale with the given watermark —
// the joiner's bootstrap: everything at or below a stability watermark is
// uniformly delivered group-wide, so a joiner treats it as processed and
// resumes contiguous processing from there. Entries may also move forward
// later when a Retransmit reports a wanted range compacted everywhere
// (see Tracker.FastForward). Install must not move any entry backwards.
func (t *Tracker) Install(watermark mid.SeqVector) error {
	for q := range t.processed {
		w := mid.Seq(0)
		if q < len(watermark) {
			w = watermark[q]
		}
		if w < t.processed[q] {
			return fmt.Errorf("causal: installing watermark %d below processed %d for p%d", w, t.processed[q], q)
		}
	}
	for q := range t.processed {
		if q < len(watermark) {
			t.processed[q] = watermark[q]
		}
	}
	return nil
}

// FastForward advances one sequence's processed position to seq without the
// messages in between — valid only when those messages are known uniformly
// stable (a responder reported the range compacted, which requires a
// full-group decision covering it). Moving backwards is a no-op.
func (t *Tracker) FastForward(q mid.ProcID, seq mid.Seq) {
	if q >= 0 && int(q) < len(t.processed) && seq > t.processed[q] {
		t.processed[q] = seq
	}
}

// IsCondemned reports whether message m has been destroyed by agreement.
func (t *Tracker) IsCondemned(m mid.MID) bool {
	if int(m.Proc) >= len(t.condemned) || m.Proc < 0 {
		return false
	}
	c := t.condemned[m.Proc]
	return c != 0 && m.Seq >= c
}

// CondemnedFrom returns the first condemned sequence number of q, or 0.
func (t *Tracker) CondemnedFrom(q mid.ProcID) mid.Seq {
	if int(q) >= len(t.condemned) || q < 0 {
		return 0
	}
	return t.condemned[q]
}

// Graph is an offline validator for a set of messages: it checks that the
// causal relation they describe is acyclic and respects Definition 3.1
// (dependencies point strictly backwards within each sequence). It is used
// by tests, not on the hot path; the trace audit judges processing order
// through faultrt.Checker instead.
type Graph struct {
	msgs map[mid.MID]*Message
}

// NewGraph returns an empty validator.
func NewGraph() *Graph { return &Graph{msgs: make(map[mid.MID]*Message)} }

// Add inserts a message. Adding two different messages with the same MID is
// an error (MIDs are unique by construction).
func (g *Graph) Add(m *Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if _, dup := g.msgs[m.ID]; dup {
		return fmt.Errorf("causal: duplicate MID %v", m.ID)
	}
	g.msgs[m.ID] = m
	return nil
}

// Len returns the number of messages in the graph.
func (g *Graph) Len() int { return len(g.msgs) }

// Get returns the message with the given MID, or nil.
func (g *Graph) Get(id mid.MID) *Message { return g.msgs[id] }

// CheckAcyclic verifies the transitive closure of the dependency relation
// contains no cycles. With Validate enforcing that intra-sequence edges
// point strictly backwards, cycles can only arise through cross-sequence
// edges; this walks the full graph to be sure.
func (g *Graph) CheckAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[mid.MID]int, len(g.msgs))
	var visit func(id mid.MID) error
	visit = func(id mid.MID) error {
		switch color[id] {
		case grey:
			return fmt.Errorf("causal: cycle through %v", id)
		case black:
			return nil
		}
		color[id] = grey
		if m := g.msgs[id]; m != nil {
			for _, d := range m.EffectiveDeps() {
				if _, known := g.msgs[d]; !known {
					continue // dependency outside the captured set
				}
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for id := range g.msgs {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// TopoOrder returns the messages in an order compatible with the causal
// relation (dependencies first). It fails if the graph is cyclic.
func (g *Graph) TopoOrder() ([]*Message, error) {
	if err := g.CheckAcyclic(); err != nil {
		return nil, err
	}
	out := make([]*Message, 0, len(g.msgs))
	done := make(map[mid.MID]bool, len(g.msgs))
	var visit func(id mid.MID)
	visit = func(id mid.MID) {
		if done[id] {
			return
		}
		done[id] = true
		m := g.msgs[id]
		if m == nil {
			return
		}
		for _, d := range m.EffectiveDeps() {
			if _, known := g.msgs[d]; known {
				visit(d)
			}
		}
		out = append(out, m)
	}
	// Visit in a deterministic order for reproducible tests.
	ids := make([]mid.MID, 0, len(g.msgs))
	for id := range g.msgs {
		ids = append(ids, id)
	}
	sortMIDs(ids)
	for _, id := range ids {
		visit(id)
	}
	return out, nil
}

func sortMIDs(ids []mid.MID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j].Less(ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
