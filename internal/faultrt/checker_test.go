package faultrt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

func msg(proc mid.ProcID, seq mid.Seq, deps ...mid.MID) *causal.Message {
	return &causal.Message{ID: mid.MID{Proc: proc, Seq: seq}, Deps: mid.DepList(deps)}
}

func TestCheckerCleanHistoryPasses(t *testing.T) {
	c := NewChecker()
	a1 := msg(0, 1)
	b1 := msg(1, 1, a1.ID) // b1 causally after a1
	a2 := msg(0, 2)
	for _, node := range []mid.ProcID{0, 1, 2} {
		c.Record(node, a1)
		c.Record(node, b1)
		c.Record(node, a2)
	}
	if v := c.Check([]mid.ProcID{0, 1, 2}); len(v) != 0 {
		t.Fatalf("clean history flagged: %v", v)
	}
}

func TestCheckerCrashedPrefixIsLegal(t *testing.T) {
	c := NewChecker()
	a1, a2 := msg(0, 1), msg(0, 2)
	c.Record(0, a1)
	c.Record(0, a2)
	c.Record(1, a1)
	c.Record(1, a2)
	c.Record(2, a1) // node 2 crashed before a2: a clean prefix
	if v := c.Check([]mid.ProcID{0, 1}); len(v) != 0 {
		t.Fatalf("crashed member's prefix flagged: %v", v)
	}
}

func TestCheckerCatchesAtomicityViolation(t *testing.T) {
	c := NewChecker()
	a1 := msg(0, 1)
	c.Record(0, a1)
	// Survivor 1 never processed a1: decided-but-not-everywhere.
	v := c.Check([]mid.ProcID{0, 1})
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	if v[0].Invariant != "uniform-atomicity" || v[0].Node != 1 || v[0].Msg != a1.ID {
		t.Errorf("violation = %+v", v[0])
	}
}

func TestCheckerCatchesOrderingViolation(t *testing.T) {
	c := NewChecker()
	a1 := msg(0, 1)
	b1 := msg(1, 1, a1.ID)
	// Node 0 processes the dependent before its dependency.
	c.Record(0, b1)
	c.Record(0, a1)
	c.Record(1, a1)
	c.Record(1, b1)
	v := c.Check([]mid.ProcID{0, 1})
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	if v[0].Invariant != "uniform-ordering" || v[0].Node != 0 || v[0].Msg != b1.ID {
		t.Errorf("violation = %+v", v[0])
	}
}

func TestCheckerCatchesSequenceGap(t *testing.T) {
	c := NewChecker()
	a2 := msg(0, 2) // (0,1) never processed: FIFO hole
	c.Record(0, a2)
	v := c.Check([]mid.ProcID{0})
	if len(v) != 1 || v[0].Invariant != "uniform-ordering" {
		t.Fatalf("violations = %v, want one ordering breach", v)
	}
}

func TestCheckerCatchesDoubleProcessing(t *testing.T) {
	c := NewChecker()
	a1 := msg(0, 1)
	c.Record(0, a1)
	c.Record(0, a1)
	v := c.Check([]mid.ProcID{0})
	if len(v) != 1 || v[0].Detail != "processed twice" {
		t.Fatalf("violations = %v, want one double-processing breach", v)
	}
}

// TestCheckerCatchesDiscardProcessedConflict: a member that destroys by
// agreement a message it processed breaks uniform atomicity.
func TestCheckerCatchesDiscardProcessedConflict(t *testing.T) {
	c := NewChecker()
	a1 := msg(0, 1)
	c.Record(0, a1)
	c.Record(1, a1)
	c.Discard(1, a1.ID) // node 1 discards what it processed
	if v := c.Check([]mid.ProcID{0, 1}); !slices.ContainsFunc(v, func(v Violation) bool { return v.Invariant == uniformAtomicity }) {
		t.Errorf("discard/process conflict not detected: %v", v)
	}
}

// TestCheckerCatchesDiscardAtOneProcessedAtOther: a message one survivor
// discarded and another processed breaks uniform atomicity, with the
// processed sets otherwise equal in count.
func TestCheckerCatchesDiscardAtOneProcessedAtOther(t *testing.T) {
	c := NewChecker()
	a1, a2 := msg(0, 1), msg(0, 2)
	c.Record(0, a1)
	c.Record(1, a1)
	c.Record(0, a2)
	c.Discard(1, a2.ID)
	if v := c.Check([]mid.ProcID{0, 1}); !slices.ContainsFunc(v, func(v Violation) bool { return v.Invariant == uniformAtomicity }) {
		t.Errorf("cross discard conflict not detected: %v", v)
	}
}

// TestCheckerRestartBaseline: a rejoined incarnation that resumes past its
// join baseline is clean — the baseline prefix is exempt from atomicity and
// satisfies dependencies — while processing below the baseline, or skipping
// a message above it, is still flagged.
func TestCheckerRestartBaseline(t *testing.T) {
	c := NewChecker()
	a1, a2, a3 := msg(0, 1), msg(0, 2), msg(0, 3)
	b1 := msg(1, 1, a2.ID)
	for _, node := range []mid.ProcID{0, 1} {
		for _, m := range []*causal.Message{a1, a2, a3, b1} {
			c.Record(node, m)
		}
	}
	// Node 2 processed a1, died, rejoined at baseline {2,0,0}: its new
	// incarnation owes only a3 and b1 (whose dep a2 the baseline covers).
	c.Record(2, a1)
	c.Restart(2, mid.SeqVector{2, 0, 0})
	c.Record(2, a3)
	c.Record(2, b1)
	if v := c.Check([]mid.ProcID{0, 1, 2}); len(v) != 0 {
		t.Fatalf("clean rejoin flagged: %v", v)
	}

	// Skipping a post-baseline message is an atomicity breach again.
	c2 := NewChecker()
	c2.Record(0, a1)
	c2.Record(0, a2)
	c2.Record(0, a3)
	c2.Restart(1, mid.SeqVector{2, 0})
	v := c2.Check([]mid.ProcID{0, 1})
	if len(v) != 1 || v[0].Invariant != "uniform-atomicity" || v[0].Msg != a3.ID {
		t.Fatalf("violations = %v, want a3 missing at node 1", v)
	}

	// Processing below the own baseline is an ordering breach (the join
	// install must have skipped it).
	c3 := NewChecker()
	c3.Restart(0, mid.SeqVector{2})
	c3.Record(0, a1)
	v = c3.Check(nil)
	if len(v) != 1 || v[0].Detail != "processed below the join baseline" {
		t.Fatalf("violations = %v, want below-baseline breach", v)
	}
}

// TestCheckerArchivedOrderingStillChecked: the pre-restart incarnation's
// log keeps being ordering-checked after the member rejoins.
func TestCheckerArchivedOrderingStillChecked(t *testing.T) {
	c := NewChecker()
	a1 := msg(0, 1)
	b1 := msg(1, 1, a1.ID)
	c.Record(0, b1) // dependency violation in the first incarnation
	c.Restart(0, mid.SeqVector{1, 1})
	v := c.Check([]mid.ProcID{0})
	if len(v) != 1 || v[0].Invariant != "uniform-ordering" || v[0].Msg != b1.ID {
		t.Fatalf("violations = %v, want archived ordering breach", v)
	}
	_ = a1
}

// TestCheckerFastForward: a recovery-driven skip raises the baseline so the
// skipped range stops counting against atomicity and satisfies deps — and
// what the incarnation processed before a skip covered it stays
// legitimately processed: a joiner syncing against a moving stability
// watermark processes (0,2) and then learns (0,3) was purged.
func TestCheckerFastForward(t *testing.T) {
	c := NewChecker()
	a1, a2, a3, a4 := msg(0, 1), msg(0, 2), msg(0, 3), msg(0, 4)
	for _, m := range []*causal.Message{a1, a2, a3, a4} {
		c.Record(0, m)
	}
	c.Restart(1, mid.SeqVector{1, 0})
	c.FastForward(1, 0, 2) // (0,2) purged at the responder: skipped
	c.Record(1, a3)
	c.Restart(2, mid.SeqVector{1, 0})
	c.Record(2, a2)
	c.FastForward(2, 0, 3) // (0,3) purged after (0,2) was processed here
	c.Record(2, a4)
	if v := c.Check([]mid.ProcID{0, 1, 2}); len(v) != 1 || v[0].Node != 1 || v[0].Msg != a4.ID {
		t.Fatalf("violations %v: want only a4 missing at node 1", v)
	}
}

// refChecker is the Checker as it was before its log was made compact: one
// entry per event holding a clone of the message's label list, whether the
// baseline covered the message when it was processed and whether the
// incarnation had halted, and one entry per discard. It is kept as the
// reference the compact log must agree with.
type refChecker struct {
	live     map[mid.ProcID]*refIncarnation
	archived map[mid.ProcID][]*refIncarnation
}

type refEntry struct {
	id    mid.MID
	deps  mid.DepList
	below bool
	late  bool
}

type refDiscard struct {
	id        mid.MID
	processed bool // the incarnation had processed id when it discarded it
}

type refIncarnation struct {
	entries  []refEntry
	discards []refDiscard
	baseline mid.SeqVector
	halted   bool
}

func (in *refIncarnation) covered(m mid.MID) bool {
	return in.baseline != nil && int(m.Proc) < len(in.baseline) && m.Seq <= in.baseline[m.Proc]
}

func (c *refChecker) liveFor(node mid.ProcID) *refIncarnation {
	if c.live[node] == nil {
		c.live[node] = &refIncarnation{}
	}
	return c.live[node]
}

func (c *refChecker) Record(node mid.ProcID, m *causal.Message) {
	in := c.liveFor(node)
	in.entries = append(in.entries, refEntry{m.ID, m.Deps.Clone(), in.covered(m.ID), in.halted})
}

func (c *refChecker) Discard(node mid.ProcID, m mid.MID) {
	in := c.liveFor(node)
	processed := false
	for _, e := range in.entries {
		processed = processed || e.id == m
	}
	in.discards = append(in.discards, refDiscard{m, processed})
}

func (c *refChecker) Halt(node mid.ProcID) { c.liveFor(node).halted = true }

func (c *refChecker) Restart(node mid.ProcID, baseline mid.SeqVector) {
	if in := c.live[node]; in != nil && len(in.entries) > 0 {
		c.archived[node] = append(c.archived[node], in)
	}
	c.live[node] = &refIncarnation{baseline: baseline.Clone()}
}

func (c *refChecker) FastForward(node, proc mid.ProcID, seq mid.Seq) {
	in := c.liveFor(node)
	for len(in.baseline) <= int(proc) {
		in.baseline = append(in.baseline, 0)
	}
	if seq > in.baseline[proc] {
		in.baseline[proc] = seq
	}
}

func (c *refChecker) Check(survivors []mid.ProcID) []Violation {
	var out []Violation
	nodes := map[mid.ProcID]bool{}
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
	ordering := func(node mid.ProcID, in *refIncarnation) {
		done := map[mid.MID]bool{}
		have := func(m mid.MID) bool { return done[m] || in.covered(m) }
		for _, d := range in.discards {
			if d.processed {
				out = append(out, Violation{"uniform-atomicity", node, d.id, "discarded after processing it"})
			}
		}
		for _, e := range in.entries {
			if e.late {
				out = append(out, Violation{"fail-stop", node, e.id, "processed after halting"})
			}
			if done[e.id] {
				out = append(out, Violation{"uniform-ordering", node, e.id, "processed twice"})
				continue
			}
			if e.below {
				out = append(out, Violation{"uniform-ordering", node, e.id, "processed below the join baseline"})
			}
			if prev := e.id.Prev(); !prev.IsZero() && !have(prev) {
				out = append(out, Violation{"uniform-ordering", node, e.id, fmt.Sprintf("sequence predecessor %v not processed first", prev)})
			}
			for _, d := range e.deps {
				if !have(d) {
					out = append(out, Violation{"uniform-ordering", node, e.id, fmt.Sprintf("dependency %v not processed first", d)})
				}
			}
			done[e.id] = true
		}
	}
	for _, node := range sorted {
		for _, in := range c.archived[node] {
			ordering(node, in)
		}
		if in := c.live[node]; in != nil {
			ordering(node, in)
		}
	}
	union := map[mid.MID]mid.ProcID{}
	perNode := map[mid.ProcID]map[mid.MID]bool{}
	for _, node := range survivors {
		in := c.live[node]
		if in == nil {
			perNode[node] = nil
			continue
		}
		set := map[mid.MID]bool{}
		for _, e := range in.entries {
			set[e.id] = true
			if _, ok := union[e.id]; !ok {
				union[e.id] = node
			}
		}
		perNode[node] = set
	}
	all := make([]mid.MID, 0, len(union))
	for m := range union {
		all = append(all, m)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
	surv := append([]mid.ProcID(nil), survivors...)
	sort.Slice(surv, func(i, j int) bool { return surv[i] < surv[j] })
	for _, m := range all {
		for _, node := range surv {
			if perNode[node][m] {
				continue
			}
			if in := c.live[node]; in != nil && in.covered(m) {
				continue
			}
			out = append(out, Violation{"uniform-atomicity", node, m, fmt.Sprintf("processed at survivor %d but not here", union[m])})
		}
	}
	for _, node := range surv {
		in := c.live[node]
		if in == nil {
			continue
		}
		seen := map[mid.MID]bool{}
		for _, d := range in.discards {
			if holder, ok := union[d.id]; ok && !seen[d.id] {
				out = append(out, Violation{"uniform-atomicity", node, d.id, fmt.Sprintf("discarded here but processed at survivor %d", holder)})
			}
			seen[d.id] = true
		}
	}
	return out
}

// sortedLike puts the reference's violations in the Checker's canonical
// order, from a shuffled copy too: the order is total, so both must agree.
func sortedLike(t *testing.T, rng *rand.Rand, want []Violation) []Violation {
	t.Helper()
	shuffled := slices.Clone(want)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sortViolations(want)
	sortViolations(shuffled)
	if !reflect.DeepEqual(want, shuffled) {
		t.Fatalf("the canonical order depends on the input order:\n%v\n%v", want, shuffled)
	}
	return want
}

// tally counts violations by invariant, and the discard clause's two
// breaches by the start of their detail.
func tally(seen map[string]int, vs []Violation) {
	for _, v := range vs {
		seen[v.Invariant]++
		for _, clause := range []string{"discarded after", "discarded here"} {
			if strings.HasPrefix(v.Detail, clause) {
				seen[clause]++
			}
		}
	}
}

// TestCheckerCompactLogAgreesWithReference feeds seeded random histories —
// out-of-order and duplicated processing, labels on messages not yet seen,
// restarts at random baselines, fast-forwards, discards of processed and
// unprocessed messages, and halts — to the Checker and to the reference with
// the old log, and requires the same violations, at every check along the
// way: the same list, once the reference's is put in the Checker's canonical
// order (sortViolations), which a shuffle of it must not change.
func TestCheckerCompactLogAgreesWithReference(t *testing.T) {
	const nodes, senders = 4, 4
	seen := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewChecker()
		ref := &refChecker{live: map[mid.ProcID]*refIncarnation{}, archived: map[mid.ProcID][]*refIncarnation{}}
		next := make([]mid.Seq, nodes*senders) // per (node, sender): the next seq the node processes
		for step := 0; step < 400; step++ {
			node := mid.ProcID(rng.Intn(nodes))
			switch r := rng.Intn(100); {
			case r < 3:
				base := make(mid.SeqVector, senders)
				for q := range base {
					base[q] = mid.Seq(rng.Intn(6))
				}
				c.Restart(node, base)
				ref.Restart(node, base)
			case r < 6:
				proc, seq := mid.ProcID(rng.Intn(senders)), mid.Seq(rng.Intn(10))
				c.FastForward(node, proc, seq)
				ref.FastForward(node, proc, seq)
			case r < 9:
				q := mid.ProcID(rng.Intn(senders))
				m := mid.MID{Proc: q, Seq: mid.Seq(rng.Intn(int(next[int(node)*senders+int(q)])+3) + 1)}
				c.Discard(node, m)
				ref.Discard(node, m)
			case r < 10:
				c.Halt(node)
				ref.Halt(node)
			default:
				q := mid.ProcID(rng.Intn(senders))
				k := int(node)*senders + int(q)
				if rng.Intn(10) > 0 { // mostly in order; else a gap or a repeat
					next[k]++
				} else if rng.Intn(2) == 0 {
					next[k] += 2
				}
				m := &causal.Message{ID: mid.MID{Proc: q, Seq: max(next[k], 1)}}
				for d := rng.Intn(senders); d > 0; d-- {
					if p := mid.ProcID(rng.Intn(senders)); p != q {
						m.Deps = append(m.Deps, mid.MID{Proc: p, Seq: mid.Seq(rng.Intn(12) + 1)})
					}
				}
				c.Record(node, m)
				ref.Record(node, m)
			}
			if step%50 == 49 {
				var survivors []mid.ProcID
				for n := 0; n < nodes; n++ {
					if rng.Intn(4) > 0 {
						survivors = append(survivors, mid.ProcID(n))
					}
				}
				got, want := c.Check(survivors), sortedLike(t, rng, ref.Check(survivors))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: the compact log finds %d violations, the reference %d:\n%v\n%v", seed, step, len(got), len(want), got, want)
				}
				tally(seen, got)
			}
		}
	}
	for _, want := range []string{uniformOrdering, uniformAtomicity, failStop, "discarded after", "discarded here"} {
		if seen[want] == 0 {
			t.Fatalf("no history produced a %q violation: the comparison proved nothing for it (%v)", want, seen)
		}
	}

	// Run-heavy streams, the shape a batched group produces and the log folds:
	// runs of consecutive dependency-free messages from three senders,
	// interleaved at each node, broken by a dependency, a duplicate, a gap or a
	// restart mid-run, with fast-forwards, discards and halts after runs.
	const runSenders = 3
	seen = map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewChecker()
		ref := &refChecker{live: map[mid.ProcID]*refIncarnation{}, archived: map[mid.ProcID][]*refIncarnation{}}
		next := make([]mid.Seq, nodes*runSenders)
		for run := 0; run < 120; run++ {
			node, q := mid.ProcID(rng.Intn(nodes)), mid.ProcID(rng.Intn(runSenders))
			k := int(node)*runSenders + int(q)
			for i := 1 + rng.Intn(40); i > 0; i-- {
				m := &causal.Message{}
				switch r := rng.Intn(100); {
				case r < 2:
					base := make(mid.SeqVector, runSenders)
					for p := range base {
						base[p] = mid.Seq(rng.Intn(int(next[int(node)*runSenders+p]) + 2))
					}
					c.Restart(node, base)
					ref.Restart(node, base)
				case r < 5: // a duplicate inside the run
				case r < 7:
					next[k] += 2 // a gap
				case r < 11:
					p := mid.ProcID((int(q) + 1 + rng.Intn(runSenders-1)) % runSenders)
					m.Deps = mid.DepList{{Proc: p, Seq: mid.Seq(rng.Intn(30) + 1)}}
					next[k]++
				default:
					next[k]++
				}
				m.ID = mid.MID{Proc: q, Seq: max(next[k], 1)}
				c.Record(node, m)
				ref.Record(node, m)
			}
			if rng.Intn(8) == 0 {
				proc := mid.ProcID(rng.Intn(runSenders))
				seq := next[int(node)*runSenders+int(proc)] + mid.Seq(rng.Intn(5))
				c.FastForward(node, proc, seq)
				ref.FastForward(node, proc, seq)
			}
			if rng.Intn(8) == 0 {
				m := mid.MID{Proc: q, Seq: max(next[k], 1) + mid.Seq(rng.Intn(3))}
				c.Discard(node, m)
				ref.Discard(node, m)
			}
			if rng.Intn(30) == 0 {
				c.Halt(node)
				ref.Halt(node)
			}
			if run%10 == 9 {
				var survivors []mid.ProcID
				for n := 0; n < nodes; n++ {
					if rng.Intn(4) > 0 {
						survivors = append(survivors, mid.ProcID(n))
					}
				}
				got, want := c.Check(survivors), sortedLike(t, rng, ref.Check(survivors))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("runs, seed %d run %d: the range log finds %d violations, the reference %d:\n%v\n%v", seed, run, len(got), len(want), got, want)
				}
				for n := 0; n < nodes; n++ {
					node := mid.ProcID(n)
					want := 0
					if in := ref.live[node]; in != nil {
						want = len(in.entries)
					}
					if got := c.Recorded(node); got != want {
						t.Fatalf("runs, seed %d run %d: node %d Recorded %d, the reference holds %d events", seed, run, node, got, want)
					}
				}
				tally(seen, got)
			}
		}
	}
	for _, want := range []string{uniformOrdering, uniformAtomicity, failStop, "discarded after", "discarded here"} {
		if seen[want] == 0 {
			t.Fatalf("no run-heavy history produced a %q violation: the comparison proved nothing for it (%v)", want, seen)
		}
	}
}

// entries is what an incarnation's record holds: its ranges, its parked
// checks and its repeats.
func entries(in *incarnation) int {
	n := len(in.parked) + len(in.twice)
	for _, set := range in.done {
		n += len(set)
	}
	return n
}

// TestCheckerLogGrowsWithRuns states what the log costs: a stream of runs
// costs one range per sender however long it runs — past any fixed count —
// and every irregularity that is judged later adds one entry: a gap leaves a
// range and parks the missing predecessor, a repeat is kept, an unmet
// dependency is parked, and a message filling a gap merges two ranges back
// into one.
func TestCheckerLogGrowsWithRuns(t *testing.T) {
	long := NewChecker()
	const n = 2*(math.MaxUint16+1) + 5
	for s := mid.Seq(1); s <= n; s++ {
		long.Record(0, msg(0, s))
	}
	if got := entries(long.live[0]); got != 1 {
		t.Fatalf("a run of %d kept %d entries, want 1", n, got)
	}
	if v := long.Check([]mid.ProcID{0}); len(v) != 0 || long.Recorded(0) != n {
		t.Fatalf("a long run: violations %v, Recorded %d of %d", v, long.Recorded(0), n)
	}

	c := NewChecker()
	steps := []struct {
		m    *causal.Message
		want int
	}{
		{msg(0, 1), 1},
		{msg(0, 2), 1},
		{msg(0, 4), 3},               // a gap: a second range, (0,3) parked
		{msg(0, 4), 4},               // a repeat
		{msg(1, 1, msg(2, 9).ID), 6}, // a new sender's range, (2,9) parked
		{msg(0, 3), 5},               // the gap filled: the ranges merge
	}
	for i, s := range steps {
		c.Record(0, s.m)
		if got := entries(c.live[0]); got != s.want {
			t.Fatalf("step %d (%v): %d entries, want %d", i, s.m.ID, got, s.want)
		}
	}
	if v := c.Check([]mid.ProcID{0}); len(v) != 3 {
		t.Fatalf("violations %v, want the gap, the repeat and the unmet dependency", v)
	}
}

// TestCheckerCleanStreamCostsOneRangePerSender is the size the benchmark's
// gated runs rely on: three senders' batched streams interleaved at three
// members, the way a saturated batched group processes them, cost each
// member one range per sender — O(n) entries — whatever the volume, and a
// clean Check of them builds nothing per message.
func TestCheckerCleanStreamCostsOneRangePerSender(t *testing.T) {
	const senders, batch, subruns = 3, 32, 2000
	c := NewChecker()
	seq := make([]mid.Seq, senders)
	for s := 0; s < subruns; s++ {
		for q := mid.ProcID(0); q < senders; q++ {
			for i := 0; i < batch; i++ {
				seq[q]++
				m := msg(q, seq[q])
				for node := mid.ProcID(0); node < senders; node++ {
					c.Record(node, m)
				}
			}
		}
	}
	survivors := []mid.ProcID{0, 1, 2}
	for _, node := range survivors {
		if got := c.Recorded(node); got != senders*batch*subruns {
			t.Fatalf("node %d Recorded %d, want %d", node, got, senders*batch*subruns)
		}
		if got := entries(c.live[node]); got != senders {
			t.Fatalf("node %d keeps %d entries for %d messages from %d senders, want %d", node, got, senders*batch*subruns, senders, senders)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if v := c.Check(survivors); len(v) != 0 {
			t.Fatalf("a clean stream flagged: %v", v[:min(len(v), 5)])
		}
	})
	if allocs > 100 {
		t.Errorf("a clean Check of %d messages allocates %v objects, want a handful per sender", senders*batch*subruns, allocs)
	}
}
