package faultrt

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// Violation is one invariant breach found by the Checker.
type Violation struct {
	// Invariant names the broken property: "uniform-atomicity" or
	// "uniform-ordering".
	Invariant string
	// Node is the member at which the breach was observed.
	Node mid.ProcID
	// Msg is the message involved.
	Msg mid.MID
	// Detail explains the breach.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: node %d, %v: %s", v.Invariant, v.Node, v.Msg, v.Detail)
}

// checkerEntry is a run of processing events: the message id, then the next
// more messages of the same sender at the sequence numbers after it, each
// processed right after the one before and declaring no dependency of its
// own. The first message's declared cross-sequence dependencies sit in the
// incarnation's label log at off (the implicit same-sequence predecessor is
// derived from the MID). 16 bytes, and a batched stream costs about one
// entry per frame: the log grows with the stream's irregularities — a
// dependency, another sender's message in between, a gap, a repeat — not
// with its volume.
type checkerEntry struct {
	id   mid.MID
	off  uint32
	n    uint16 // labels at off; wire.MaxDeps bounds a message's list
	more uint16 // messages the run holds after id
}

// at returns the i-th message of the run (0 is id itself).
func (e checkerEntry) at(i int) mid.MID {
	return mid.MID{Proc: e.id.Proc, Seq: e.id.Seq + mid.Seq(i)}
}

// extends reports whether a dependency-free m, processed next, continues
// the run.
func (e checkerEntry) extends(m mid.MID) bool {
	return e.more < math.MaxUint16 && m == e.at(int(e.more)+1)
}

// incarnation is one lifetime of a member: its processing log plus the
// stability baseline it joined at. The baseline is nil for a member's first
// incarnation (it was present at group birth and owes the full prefix);
// for a rejoined incarnation it is the stable vector installed by the state
// transfer — everything at or below it was uniformly stable before the
// incarnation existed, so the invariants treat that prefix as processed.
type incarnation struct {
	entries  []checkerEntry
	labels   []mid.MID // every entry's dependency labels, back to back
	events   int       // processing events on record: the runs' total length
	baseline mid.SeqVector
}

// deps returns the labels of the i-th message of run e: the first message's
// list, and none for the rest.
func (in *incarnation) deps(e checkerEntry, i int) []mid.MID {
	if i > 0 {
		return nil
	}
	return in.labels[e.off : e.off+uint32(e.n)]
}

// covered reports whether m lies in the incarnation's exempt prefix.
func (in *incarnation) covered(m mid.MID) bool {
	return in.baseline != nil && int(m.Proc) < len(in.baseline) &&
		m.Seq <= in.baseline[m.Proc]
}

// Checker records every member's processed sequence during a chaos run and
// asserts, after churn, the paper's two uniform properties:
//
//   - Uniform Atomicity (Definition 3.2): every message processed by any
//     surviving member was processed by all surviving members — decided
//     messages are delivered everywhere or nowhere.
//   - Uniform Ordering (Definition 3.1): at every member, a message was
//     processed only after every message it causally depends on — its
//     declared dependencies and its same-sequence predecessor.
//
// Members may die and rejoin: Restart closes the current incarnation's log
// and opens a fresh one anchored at the join baseline. Ordering is checked
// within every incarnation, live or archived (a crashed prefix must be
// causally ordered too); atomicity compares survivors' live incarnations,
// exempting each one's pre-join baseline.
//
// Feed it from each member's indication stream (or OnProcess callback);
// Record is safe for concurrent use. Check is meant for after the run.
type Checker struct {
	mu       sync.Mutex
	live     map[mid.ProcID]*incarnation
	archived map[mid.ProcID][]*incarnation
}

// NewChecker returns an empty history recorder.
func NewChecker() *Checker {
	return &Checker{
		live:     make(map[mid.ProcID]*incarnation),
		archived: make(map[mid.ProcID][]*incarnation),
	}
}

func (c *Checker) liveFor(node mid.ProcID) *incarnation {
	in := c.live[node]
	if in == nil {
		in = &incarnation{}
		c.live[node] = in
	}
	return in
}

// Record appends one processed message to node's current incarnation: a
// dependency-free message that follows its sender's previous one extends
// the last run, any other opens a new entry, copying its dependency list
// into the incarnation's label log. A list longer than wire.MaxDeps cannot
// have travelled, and panics.
func (c *Checker) Record(node mid.ProcID, m *causal.Message) {
	if len(m.Deps) > math.MaxUint16 {
		panic(fmt.Sprintf("faultrt: %v declares %d dependencies, more than a message can carry", m.ID, len(m.Deps)))
	}
	c.mu.Lock()
	in := c.liveFor(node)
	in.events++
	if last := len(in.entries) - 1; last >= 0 && len(m.Deps) == 0 && in.entries[last].extends(m.ID) {
		in.entries[last].more++
	} else {
		in.entries = append(in.entries, checkerEntry{id: m.ID, off: uint32(len(in.labels)), n: uint16(len(m.Deps))})
		in.labels = append(in.labels, m.Deps...)
	}
	c.mu.Unlock()
}

// Recorded returns how many processing events node's current incarnation
// has on record.
func (c *Checker) Recorded(node mid.ProcID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if in := c.live[node]; in != nil {
		return in.events
	}
	return 0
}

// Restart archives node's current incarnation and opens a fresh one with
// the given join baseline — the stable vector the state transfer installed.
// Call it when the rejoined incarnation installs its snapshot (the joiner
// processes nothing before that, so any earlier call timing that still
// precedes the first post-join Record is equivalent). The archived prefix
// stays ordering-checked; atomicity moves to the new incarnation, with the
// baseline prefix exempt.
func (c *Checker) Restart(node mid.ProcID, baseline mid.SeqVector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if in := c.live[node]; in != nil && len(in.entries) > 0 {
		c.archived[node] = append(c.archived[node], in)
	}
	c.live[node] = &incarnation{baseline: baseline.Clone()}
}

// FastForward raises node's baseline entry for proc to at least seq: the
// recovery machinery told the rejoined incarnation that proc's sequence
// through seq was purged as uniformly stable, and the incarnation skipped
// its frontier over the gap instead of processing it.
func (c *Checker) FastForward(node mid.ProcID, proc mid.ProcID, seq mid.Seq) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.liveFor(node)
	if int(proc) < 0 {
		return
	}
	for len(in.baseline) <= int(proc) {
		in.baseline = append(in.baseline, 0)
	}
	if seq > in.baseline[proc] {
		in.baseline[proc] = seq
	}
}

// Check verifies both invariants: ordering over every recorded incarnation
// (crashed and pre-restart prefixes must be causally ordered too),
// atomicity over the surviving members' live incarnations only — a crashed
// member legitimately stops mid-prefix, and a rejoined one legitimately
// starts past its baseline. Returns every violation found, nil when the
// run was clean.
func (c *Checker) Check(survivors []mid.ProcID) []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Violation
	out = append(out, c.orderingLocked()...)
	out = append(out, c.atomicityLocked(survivors)...)
	return out
}

// orderingLocked asserts Uniform Ordering and no double processing within
// every incarnation of every recorded member.
func (c *Checker) orderingLocked() []Violation {
	var out []Violation
	nodes := make(map[mid.ProcID]bool, len(c.live))
	for n := range c.live {
		nodes[n] = true
	}
	for n := range c.archived {
		nodes[n] = true
	}
	sorted := make([]mid.ProcID, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, node := range sorted {
		for _, in := range c.archived[node] {
			out = append(out, c.orderingOne(node, in)...)
		}
		if in := c.live[node]; in != nil {
			out = append(out, c.orderingOne(node, in)...)
		}
	}
	return out
}

// orderingOne checks one incarnation's log, expanding its runs in recording
// order. Dependencies at or below the incarnation's baseline were uniformly
// stable before it existed and count as processed.
func (c *Checker) orderingOne(node mid.ProcID, in *incarnation) []Violation {
	var out []Violation
	done := make(map[mid.MID]bool, in.events)
	have := func(m mid.MID) bool { return done[m] || in.covered(m) }
	for _, e := range in.entries {
		for i := 0; i <= int(e.more); i++ {
			id := e.at(i)
			if done[id] {
				out = append(out, Violation{
					Invariant: "uniform-ordering", Node: node, Msg: id,
					Detail: "processed twice",
				})
				continue
			}
			if in.covered(id) {
				out = append(out, Violation{
					Invariant: "uniform-ordering", Node: node, Msg: id,
					Detail: "processed below the join baseline",
				})
			}
			if prev := id.Prev(); !prev.IsZero() && !have(prev) {
				out = append(out, Violation{
					Invariant: "uniform-ordering", Node: node, Msg: id,
					Detail: fmt.Sprintf("sequence predecessor %v not processed first", prev),
				})
			}
			for _, d := range in.deps(e, i) {
				if !have(d) {
					out = append(out, Violation{
						Invariant: "uniform-ordering", Node: node, Msg: id,
						Detail: fmt.Sprintf("dependency %v not processed first", d),
					})
				}
			}
			done[id] = true
		}
	}
	return out
}

// atomicityLocked asserts that the surviving members' live incarnations
// processed the same message set, minus each incarnation's exempt baseline
// prefix.
func (c *Checker) atomicityLocked(survivors []mid.ProcID) []Violation {
	var out []Violation
	union := make(map[mid.MID]mid.ProcID) // message -> one survivor that processed it
	perNode := make(map[mid.ProcID]map[mid.MID]bool, len(survivors))
	for _, node := range survivors {
		in := c.live[node]
		if in == nil {
			perNode[node] = nil
			continue
		}
		set := make(map[mid.MID]bool, in.events)
		for _, e := range in.entries {
			for i := 0; i <= int(e.more); i++ {
				id := e.at(i)
				set[id] = true
				if _, ok := union[id]; !ok {
					union[id] = node
				}
			}
		}
		perNode[node] = set
	}
	// Deterministic report order.
	all := make([]mid.MID, 0, len(union))
	for m := range union {
		all = append(all, m)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
	sorted := append([]mid.ProcID(nil), survivors...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, m := range all {
		for _, node := range sorted {
			if perNode[node][m] {
				continue
			}
			if in := c.live[node]; in != nil && in.covered(m) {
				continue
			}
			out = append(out, Violation{
				Invariant: "uniform-atomicity", Node: node, Msg: m,
				Detail: fmt.Sprintf("processed at survivor %d but not here", union[m]),
			})
		}
	}
	return out
}
