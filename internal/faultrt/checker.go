package faultrt

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// Violation is one invariant breach found by the Checker.
type Violation struct {
	// Invariant names the broken property: "uniform-ordering",
	// "uniform-atomicity" or "fail-stop".
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

const (
	uniformOrdering  = "uniform-ordering"
	uniformAtomicity = "uniform-atomicity"
	failStop         = "fail-stop"
)

// invariants is the rank of each invariant in a Check report.
var invariants = []string{uniformOrdering, uniformAtomicity, failStop}

// sortViolations puts a Check report in its canonical order: the ordering
// breaches by node, message and detail, then the atomicity breaches by
// message, node and detail, then the fail-stop breaches by node, message and
// detail.
func sortViolations(vs []Violation) {
	slices.SortStableFunc(vs, func(a, b Violation) int {
		if c := cmp.Compare(slices.Index(invariants, a.Invariant), slices.Index(invariants, b.Invariant)); c != 0 {
			return c
		}
		first, second := cmp.Compare(a.Node, b.Node), compareMID(a.Msg, b.Msg)
		if a.Invariant == uniformAtomicity {
			first, second = second, first
		}
		return cmp.Or(first, second, cmp.Compare(a.Detail, b.Detail))
	})
}

func compareMID(a, b mid.MID) int {
	return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Seq, b.Seq))
}

// seqRange is the sequence numbers from through to, both included.
type seqRange struct{ from, to mid.Seq }

// seqSet is a set of one sender's sequence numbers: sorted ranges that
// neither overlap nor touch. A sender's stream processed in order is one
// range, whatever its length.
type seqSet []seqRange

// after is the sequence number that would extend a range ending at s.
func after(s mid.Seq) uint64 { return uint64(s) + 1 }

// has reports whether q is in the set.
func (s seqSet) has(q mid.Seq) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].to >= q })
	return i < len(s) && s[i].from <= q
}

// add puts q, not yet in the set, in it. The next number of the last range —
// a stream in order — costs no search.
func (s *seqSet) add(q mid.Seq) {
	rs := *s
	n := len(rs)
	switch {
	case n == 0 || uint64(q) > after(rs[n-1].to):
		*s = append(rs, seqRange{q, q})
		return
	case uint64(q) == after(rs[n-1].to):
		rs[n-1].to = q
		return
	}
	// rs[i] is the first range q touches from above or precedes; the one
	// before it ends more than one below q.
	i := sort.Search(n, func(i int) bool { return after(rs[i].to) >= uint64(q) })
	switch r := &rs[i]; {
	case uint64(q) == after(r.to):
		r.to = q
		if i+1 < n && uint64(rs[i+1].from) == after(q) {
			r.to = rs[i+1].to
			*s = slices.Delete(rs, i+1, i+2)
		}
	case after(q) == uint64(r.from):
		r.from = q
	default:
		*s = slices.Insert(rs, i, seqRange{q, q})
	}
}

// union returns the numbers in s or o.
func (s seqSet) union(o seqSet) seqSet {
	out := make(seqSet, 0, len(s)+len(o))
	for len(s) > 0 || len(o) > 0 {
		var r seqRange
		if len(o) == 0 || (len(s) > 0 && s[0].from <= o[0].from) {
			r, s = s[0], s[1:]
		} else {
			r, o = o[0], o[1:]
		}
		if last := len(out) - 1; last >= 0 && uint64(r.from) <= after(out[last].to) {
			out[last].to = max(out[last].to, r.to)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// minus returns the numbers in s, not in o, and above floor.
func (s seqSet) minus(o seqSet, floor mid.Seq) seqSet {
	var out seqSet
	for _, r := range s {
		if r.to <= floor {
			continue
		}
		from := uint64(max(r.from, floor+1)) // the first number of r not yet judged
		for len(o) > 0 && uint64(o[0].to) < from {
			o = o[1:] // both are sorted: a cut below r is below every later range
		}
		for _, cut := range o {
			if cut.from > r.to || from > uint64(r.to) {
				break
			}
			if uint64(cut.from) > from {
				out = append(out, seqRange{mid.Seq(from), cut.from - 1})
			}
			from = after(cut.to)
		}
		if from <= uint64(r.to) {
			out = append(out, seqRange{mid.Seq(from), r.to})
		}
	}
	return out
}

// each calls fn for every number of the set, in order.
func (s seqSet) each(fn func(mid.Seq)) {
	for _, r := range s {
		for q := uint64(r.from); q <= uint64(r.to); q++ {
			fn(mid.Seq(q))
		}
	}
}

// parked is an ordering check that failed at Record: msg was processed
// before need, which was neither processed nor below the baseline then. It is
// a breach unless the final baseline covers need.
type parked struct {
	msg, need mid.MID
	dep       bool // need is a declared dependency, not the sequence predecessor
}

// incarnation is one lifetime of a member: what it processed and discarded,
// the stability baseline it joined at, the ordering checks still open, and
// whether it has halted. The baseline is nil for a member's first
// incarnation (it was present at group birth and owes the full prefix); for a
// rejoined incarnation it is the stable vector installed by the state
// transfer — everything at or below it was uniformly stable before the
// incarnation existed, so the invariants treat that prefix as processed.
//
// Ordering is judged as the messages are recorded: a clean stream leaves one
// range per sender and nothing else, so the record grows with the stream's
// irregularities — a gap, a repeat, a dependency not yet met — not with its
// volume.
type incarnation struct {
	done     []seqSet // per sender: every sequence number processed, each once
	events   int      // processing events on record, repeats included
	baseline mid.SeqVector
	parked   []parked
	twice    []mid.MID // every repeat: a breach whatever the baseline
	below    []mid.MID // processed at or below the baseline as it stood then

	discarded []seqSet  // per sender: every sequence number destroyed by agreement
	destroyed []mid.MID // discarded after being processed here
	halted    bool
	late      []mid.MID // processed after the incarnation halted
}

// has reports whether m was processed by the incarnation.
func (in *incarnation) has(m mid.MID) bool {
	return m.Proc >= 0 && int(m.Proc) < len(in.done) && in.done[m.Proc].has(m.Seq)
}

// covered reports whether m lies in the incarnation's exempt prefix.
func (in *incarnation) covered(m mid.MID) bool {
	return in.baseline != nil && m.Proc >= 0 && int(m.Proc) < len(in.baseline) &&
		m.Seq <= in.baseline[m.Proc]
}

// floor is the top of the exempt prefix of proc's sequence.
func (in *incarnation) floor(proc int) mid.Seq {
	if proc < len(in.baseline) {
		return in.baseline[proc]
	}
	return 0
}

// Checker is the one judge of Definition 3.2. It records every member's
// processed sequence — live (chaos, the benchmark), simulated
// (core.Cluster) or replayed from a capture (internal/replay) — and asserts,
// after churn, the paper's uniform properties:
//
//   - Uniform Atomicity (Definition 3.2): every message processed by any
//     surviving member was processed by all surviving members — decided
//     messages are delivered everywhere or nowhere. A message destroyed by
//     agreement (Discard) at a surviving member was processed by none, and
//     no member destroys a message it processed.
//   - Uniform Ordering (Definition 3.1): at every member, a message was
//     processed only after every message it causally depends on — its
//     declared dependencies and its same-sequence predecessor.
//   - Fail-stop: a member that crashed or left (Halt) processes nothing more
//     in that incarnation.
//
// Members may die and rejoin: Restart closes the current incarnation's log
// and opens a fresh one anchored at the join baseline. Ordering is checked
// within every incarnation, live or archived (a crashed prefix must be
// causally ordered too); atomicity compares survivors' live incarnations,
// exempting each one's pre-join baseline.
//
// A host running core.Process feeds it through core.Audit, which wires every
// clause on the entity's own goroutine; the simulated cluster adds what only
// it knows, the crashes and each message's labels as generated
// (core.ClusterConfig.Checker). Every method is safe for concurrent use.
// Check is meant for after the run.
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

// Record adds one processed message to node's current incarnation and judges
// its ordering there and then: a repeat is a breach, and so is a message the
// baseline covers — the join installed it as processed, or a fast-forward
// skipped it; a predecessor or a declared dependency neither processed before
// it nor below the baseline is parked, to be judged at Check against the
// final baseline. Any message recorded after Halt is a fail-stop breach. A
// message of a negative sender, or with a list longer than wire.MaxDeps,
// cannot have travelled, and panics.
func (c *Checker) Record(node mid.ProcID, m *causal.Message) {
	if len(m.Deps) > math.MaxUint16 || m.ID.Proc < 0 {
		panic(fmt.Sprintf("faultrt: %v with %d dependencies cannot have been processed", m.ID, len(m.Deps)))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.liveFor(node)
	in.events++
	if in.halted {
		in.late = append(in.late, m.ID)
	}
	if in.has(m.ID) {
		in.twice = append(in.twice, m.ID)
		return
	}
	if in.covered(m.ID) {
		in.below = append(in.below, m.ID)
	}
	if prev := m.ID.Prev(); !prev.IsZero() && !in.has(prev) && !in.covered(prev) {
		in.parked = append(in.parked, parked{msg: m.ID, need: prev})
	}
	for _, d := range m.Deps {
		if !in.has(d) && !in.covered(d) {
			in.parked = append(in.parked, parked{msg: m.ID, need: d, dep: true})
		}
	}
	if p := int(m.ID.Proc); p >= len(in.done) {
		in.done = append(in.done, make([]seqSet, p+1-len(in.done))...)
	}
	in.done[m.ID.Proc].add(m.ID.Seq)
}

// Discard records that node's current incarnation destroyed m by agreement
// instead of processing it. Destroying a message the incarnation processed is
// a uniform-atomicity breach there and then; one a surviving member processed
// is judged at Check. A message of a negative sender panics, as in Record.
func (c *Checker) Discard(node mid.ProcID, m mid.MID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.liveFor(node)
	if in.has(m) {
		in.destroyed = append(in.destroyed, m)
	}
	if p := int(m.Proc); p >= len(in.discarded) {
		in.discarded = append(in.discarded, make([]seqSet, p+1-len(in.discarded))...)
	}
	if !in.discarded[m.Proc].has(m.Seq) {
		in.discarded[m.Proc].add(m.Seq)
	}
}

// Halt records that node's current incarnation fail-stopped: it crashed or
// left the group. A message it records from now on is a fail-stop breach;
// Restart opens a fresh incarnation, which has not halted.
func (c *Checker) Halt(node mid.ProcID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.liveFor(node).halted = true
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
	if in := c.live[node]; in != nil && in.events > 0 {
		c.archived[node] = append(c.archived[node], in)
	}
	c.live[node] = &incarnation{baseline: baseline.Clone()}
}

// FastForward raises node's baseline entry for proc to at least seq: the
// recovery machinery told the rejoined incarnation that proc's sequence
// through seq was purged as uniformly stable, and the incarnation skipped
// its frontier over the gap instead of processing it. What it processed of
// the prefix before the skip stays legitimately processed.
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

// Check verifies the invariants: ordering, fail-stop and the destruction of
// processed messages over every recorded incarnation (crashed and
// pre-restart prefixes are judged too), atomicity across members over the
// surviving members' live incarnations only — a crashed member legitimately
// stops mid-prefix, and a rejoined one legitimately starts past its
// baseline. Returns every violation found, in the order sortViolations gives
// them, nil when the run was clean.
func (c *Checker) Check(survivors []mid.ProcID) []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Violation
	for node, in := range c.live {
		out = append(out, judge(node, in)...)
	}
	for node, ins := range c.archived {
		for _, in := range ins {
			out = append(out, judge(node, in)...)
		}
	}
	out = append(out, c.atomicityLocked(survivors)...)
	sortViolations(out)
	return out
}

// judge reports the breaches one incarnation shows on its own: its repeats,
// what it processed below its baseline, the parked checks the final baseline
// does not settle, what it discarded after processing, and what it processed
// after halting.
func judge(node mid.ProcID, in *incarnation) []Violation {
	var out []Violation
	for _, m := range in.destroyed {
		out = append(out, Violation{Invariant: uniformAtomicity, Node: node, Msg: m, Detail: "discarded after processing it"})
	}
	for _, m := range in.late {
		out = append(out, Violation{Invariant: failStop, Node: node, Msg: m, Detail: "processed after halting"})
	}
	for _, m := range in.twice {
		out = append(out, Violation{Invariant: uniformOrdering, Node: node, Msg: m, Detail: "processed twice"})
	}
	for _, m := range in.below {
		out = append(out, Violation{Invariant: uniformOrdering, Node: node, Msg: m, Detail: "processed below the join baseline"})
	}
	for _, p := range in.parked {
		if in.covered(p.need) {
			continue
		}
		what := "sequence predecessor"
		if p.dep {
			what = "dependency"
		}
		out = append(out, Violation{Invariant: uniformOrdering, Node: node, Msg: p.msg,
			Detail: fmt.Sprintf("%s %v not processed first", what, p.need)})
	}
	return out
}

// atomicityLocked asserts that the surviving members' live incarnations
// processed the same message set, minus each incarnation's exempt baseline
// prefix, and discarded none of it, by range arithmetic over their sets: each
// survivor is missing the survivors' union less its own set, above its floor,
// and wrongly discarded its discarded set less what no survivor processed.
func (c *Checker) atomicityLocked(survivors []mid.ProcID) []Violation {
	var union []seqSet
	for _, node := range survivors {
		if in := c.live[node]; in != nil {
			for len(union) < len(in.done) {
				union = append(union, nil)
			}
			for proc, set := range in.done {
				union[proc] = union[proc].union(set)
			}
		}
	}
	var out []Violation
	for _, node := range survivors {
		in := c.live[node]
		if in == nil {
			in = &incarnation{}
		}
		for proc, set := range union {
			var own seqSet
			if proc < len(in.done) {
				own = in.done[proc]
			}
			set.minus(own, in.floor(proc)).each(func(q mid.Seq) {
				m := mid.MID{Proc: mid.ProcID(proc), Seq: q}
				out = append(out, Violation{Invariant: uniformAtomicity, Node: node, Msg: m,
					Detail: fmt.Sprintf("processed at survivor %d but not here", c.firstHolder(survivors, m))})
			})
		}
		for proc, set := range in.discarded[:min(len(in.discarded), len(union))] {
			set.minus(set.minus(union[proc], 0), 0).each(func(q mid.Seq) {
				m := mid.MID{Proc: mid.ProcID(proc), Seq: q}
				out = append(out, Violation{Invariant: uniformAtomicity, Node: node, Msg: m,
					Detail: fmt.Sprintf("discarded here but processed at survivor %d", c.firstHolder(survivors, m))})
			})
		}
	}
	return out
}

// firstHolder returns the first survivor, in the order given, that
// processed m.
func (c *Checker) firstHolder(survivors []mid.ProcID, m mid.MID) mid.ProcID {
	for _, node := range survivors {
		if in := c.live[node]; in != nil && in.has(m) {
			return node
		}
	}
	return mid.None
}
