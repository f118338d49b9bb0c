package causal

import (
	"math/rand"
	"testing"

	"urcgc/internal/mid"
)

func msg(p mid.ProcID, s mid.Seq, deps ...mid.MID) *Message {
	return &Message{ID: mid.MID{Proc: p, Seq: s}, Deps: mid.DepList(deps)}
}

func TestEffectiveDepsAddsImplicitPredecessor(t *testing.T) {
	m := msg(1, 3, mid.MID{Proc: 0, Seq: 2})
	deps := m.EffectiveDeps()
	if !deps.Covers(mid.MID{Proc: 1, Seq: 2}) {
		t.Errorf("effective deps %v should cover implicit p1#2", deps)
	}
	if !deps.Covers(mid.MID{Proc: 0, Seq: 2}) {
		t.Errorf("effective deps %v should cover explicit p0#2", deps)
	}
}

func TestEffectiveDepsFirstMessageHasNoImplicit(t *testing.T) {
	m := msg(1, 1)
	if deps := m.EffectiveDeps(); len(deps) != 0 {
		t.Errorf("first message of a sequence should have no deps, got %v", deps)
	}
}

func TestEffectiveDepsDoesNotDuplicate(t *testing.T) {
	m := msg(1, 3, mid.MID{Proc: 1, Seq: 2})
	deps := m.EffectiveDeps()
	count := 0
	for _, d := range deps {
		if d.Proc == 1 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("own-sequence dep should appear once, got %v", deps)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		m  *Message
		ok bool
	}{
		{msg(0, 1), true},
		{msg(0, 2, mid.MID{Proc: 1, Seq: 5}), true},
		{&Message{}, false},                           // zero MID
		{msg(0, 2, mid.MID{}), false},                 // zero dep
		{msg(0, 2, mid.MID{Proc: 0, Seq: 2}), false},  // self dep
		{msg(0, 2, mid.MID{Proc: 0, Seq: 9}), false},  // forward own-sequence dep
		{msg(0, 5, mid.MID{Proc: 0, Seq: 4}), true},   // backward own-sequence dep ok
		{msg(-2, 3), false},                           // negative generator
		{msg(0, 2, mid.MID{Proc: -2, Seq: 1}), false}, // negative dependency
	}
	for i, c := range cases {
		err := c.m.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestReadyAndMissing(t *testing.T) {
	processed := mid.SeqVector{2, 0, 1}
	m := msg(1, 1, mid.MID{Proc: 0, Seq: 2}, mid.MID{Proc: 2, Seq: 2})
	if Ready(m, processed) {
		t.Error("p2#2 not processed, should not be ready")
	}
	miss := MissingDeps(m, processed)
	if len(miss) != 1 || miss[0] != (mid.MID{Proc: 2, Seq: 2}) {
		t.Errorf("MissingDeps = %v", miss)
	}
	processed[2] = 2
	if !Ready(m, processed) {
		t.Error("all deps satisfied, should be ready")
	}
}

func TestReadyOutOfRangeProc(t *testing.T) {
	m := msg(0, 1, mid.MID{Proc: 9, Seq: 1})
	if Ready(m, mid.SeqVector{0, 0}) {
		t.Error("dep on process outside vector is never satisfied")
	}
}

func TestTrackerProcessContiguity(t *testing.T) {
	tr := NewTracker(3)
	if err := tr.Process(msg(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Process(msg(0, 3)); err == nil {
		t.Error("skipping p0#2 must fail")
	}
	if err := tr.Process(msg(0, 2)); err != nil {
		t.Fatal(err)
	}
	if tr.LastProcessed(0) != 2 {
		t.Errorf("LastProcessed = %d", tr.LastProcessed(0))
	}
}

func TestTrackerReadyRespectsCrossDeps(t *testing.T) {
	tr := NewTracker(3)
	m := msg(1, 1, mid.MID{Proc: 0, Seq: 1})
	if tr.Ready(m) {
		t.Error("cross dep unsatisfied")
	}
	if err := tr.Process(msg(0, 1)); err != nil {
		t.Fatal(err)
	}
	if !tr.Ready(m) {
		t.Error("cross dep satisfied now")
	}
}

func TestTrackerCondemn(t *testing.T) {
	tr := NewTracker(3)
	if err := tr.Process(msg(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Condemn(2, 1); err == nil {
		t.Error("cannot condemn an already-processed message")
	}
	if err := tr.Condemn(2, 3); err != nil {
		t.Fatal(err)
	}
	if !tr.IsCondemned(mid.MID{Proc: 2, Seq: 3}) || !tr.IsCondemned(mid.MID{Proc: 2, Seq: 9}) {
		t.Error("suffix from 3 should be condemned")
	}
	if tr.IsCondemned(mid.MID{Proc: 2, Seq: 2}) {
		t.Error("p2#2 not condemned")
	}
	// Widening.
	if err := tr.Condemn(2, 2); err != nil {
		t.Fatal(err)
	}
	if !tr.IsCondemned(mid.MID{Proc: 2, Seq: 2}) {
		t.Error("condemned range should widen to 2")
	}
	// Narrowing attempt is a no-op.
	if err := tr.Condemn(2, 5); err != nil {
		t.Fatal(err)
	}
	if tr.CondemnedFrom(2) != 2 {
		t.Errorf("CondemnedFrom = %d, want 2", tr.CondemnedFrom(2))
	}
}

func TestTrackerDoomedTransitively(t *testing.T) {
	tr := NewTracker(3)
	if err := tr.Condemn(0, 1); err != nil {
		t.Fatal(err)
	}
	m := msg(1, 1, mid.MID{Proc: 0, Seq: 1})
	if !tr.Doomed(m) {
		t.Error("message depending on condemned message is doomed")
	}
	if tr.Ready(m) {
		t.Error("doomed message is never ready")
	}
	clean := msg(2, 1)
	if tr.Doomed(clean) {
		t.Error("independent message is not doomed")
	}
}

func TestTrackerProcessCondemnedFails(t *testing.T) {
	tr := NewTracker(2)
	if err := tr.Condemn(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Process(msg(0, 1)); err == nil {
		t.Error("processing a condemned message must fail")
	}
}

func TestGraphDuplicateMID(t *testing.T) {
	g := NewGraph()
	if err := g.Add(msg(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(msg(0, 1)); err == nil {
		t.Error("duplicate MID must be rejected")
	}
}

func TestGraphAcyclicAndTopo(t *testing.T) {
	g := NewGraph()
	// p0: m1 <- m2 ; p1: n1 depends on m2 ; p0#3 depends on n1.
	mustAdd(t, g, msg(0, 1))
	mustAdd(t, g, msg(0, 2))
	mustAdd(t, g, msg(1, 1, mid.MID{Proc: 0, Seq: 2}))
	mustAdd(t, g, msg(0, 3, mid.MID{Proc: 1, Seq: 1}))
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[mid.MID]int)
	for i, m := range order {
		pos[m.ID] = i
	}
	for _, m := range order {
		for _, d := range m.EffectiveDeps() {
			if dp, ok := pos[d]; ok && dp >= pos[m.ID] {
				t.Errorf("%v should come after dep %v", m.ID, d)
			}
		}
	}
}

func TestGraphDetectsCrossSequenceCycle(t *testing.T) {
	g := NewGraph()
	// p0#1 depends on p1#1, p1#1 depends on p0#1: a cycle that per-message
	// validation cannot see.
	mustAdd(t, g, msg(0, 1, mid.MID{Proc: 1, Seq: 1}))
	mustAdd(t, g, msg(1, 1, mid.MID{Proc: 0, Seq: 1}))
	if err := g.CheckAcyclic(); err == nil {
		t.Error("cycle should be detected")
	}
	if _, err := g.TopoOrder(); err == nil {
		t.Error("TopoOrder on cyclic graph must fail")
	}
}

func mustAdd(t *testing.T, g *Graph, m *Message) {
	t.Helper()
	if err := g.Add(m); err != nil {
		t.Fatal(err)
	}
}

// Property: feeding any randomly generated acyclic message population to a
// Tracker in topological order always succeeds, and the final processed
// vector counts every message.
func TestTrackerConsumesAnyTopoOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(4)
		perProc := 1 + rng.Intn(6)
		g := NewGraph()
		// Generate sequences in causal-time order: message (p, s) may depend
		// on any (q, s') already generated.
		generated := mid.NewSeqVector(n)
		total := n * perProc
		for k := 0; k < total; k++ {
			p := mid.ProcID(k % n)
			s := generated[p] + 1
			var deps mid.DepList
			for q := 0; q < n; q++ {
				if mid.ProcID(q) == p || generated[q] == 0 {
					continue
				}
				if rng.Intn(2) == 0 {
					deps = append(deps, mid.MID{Proc: mid.ProcID(q), Seq: mid.Seq(1 + rng.Intn(int(generated[q])))})
				}
			}
			if err := g.Add(&Message{ID: mid.MID{Proc: p, Seq: s}, Deps: deps}); err != nil {
				t.Fatal(err)
			}
			generated[p] = s
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := NewTracker(n)
		for _, m := range order {
			if !tr.Ready(m) {
				t.Fatalf("trial %d: %v not ready in topo order", trial, m.ID)
			}
			if err := tr.Process(m); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if tr.Processed().Sum() != uint64(total) {
			t.Fatalf("trial %d: processed %d of %d", trial, tr.Processed().Sum(), total)
		}
	}
}

// TestInPlaceVerdictsMatchEffectiveDeps holds the in-place walks (Deps plus
// ID.Prev(), no list built) to the verdicts the definition gives: Ready and
// Doomed computed over the canonical EffectiveDeps list, as they were before
// the walk. The inputs include what Submit never produces but a socket can —
// non-canonical lists, labels covering the predecessor, own-sequence labels
// at or after the message, processes outside the group on either side.
func TestInPlaceVerdictsMatchEffectiveDeps(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 20000; iter++ {
		tr := NewTracker(n)
		for q := 0; q < n; q++ {
			tr.processed[q] = mid.Seq(rng.Intn(5))
			if rng.Intn(3) == 0 {
				tr.condemned[q] = tr.processed[q] + 1 + mid.Seq(rng.Intn(3))
			}
		}
		m := &Message{ID: mid.MID{Proc: mid.ProcID(rng.Intn(n+2) - 1), Seq: mid.Seq(1 + rng.Intn(6))}}
		for k := rng.Intn(5); k > 0; k-- {
			m.Deps = append(m.Deps, mid.MID{Proc: mid.ProcID(rng.Intn(n+2) - 1), Seq: mid.Seq(1 + rng.Intn(6))})
		}
		wantReady, wantDoomed := true, tr.IsCondemned(m.ID)
		for _, d := range m.EffectiveDeps() {
			if d.Proc < 0 || int(d.Proc) >= n || tr.processed[d.Proc] < d.Seq {
				wantReady = false
			}
			if tr.IsCondemned(d) {
				wantDoomed = true
			}
		}
		if got := Ready(m, tr.processed); got != wantReady {
			t.Fatalf("Ready(%v deps %v | processed %v) = %v, reference %v", m.ID, m.Deps, tr.processed, got, wantReady)
		}
		if got := tr.Doomed(m); got != wantDoomed {
			t.Fatalf("Doomed(%v deps %v | condemned %v) = %v, reference %v", m.ID, m.Deps, tr.condemned, got, wantDoomed)
		}
		if got, want := tr.Ready(m), wantReady && !wantDoomed; got != want {
			t.Fatalf("Tracker.Ready(%v deps %v) = %v, reference %v", m.ID, m.Deps, got, want)
		}
		miss := MissingDeps(m, tr.processed)
		if (len(miss) == 0) != wantReady {
			t.Fatalf("MissingDeps(%v deps %v | processed %v) = %v, but Ready = %v", m.ID, m.Deps, tr.processed, miss, wantReady)
		}
	}
}

// TestTrackerVerdictsAllocFree pins the reason the intermediate
// interpretation exists: the causal check is a walk over at most n labels,
// and it costs no allocation — with explicit labels or without, ready,
// waiting or doomed, and when the message is finally processed.
func TestTrackerVerdictsAllocFree(t *testing.T) {
	tr := NewTracker(3)
	tr.processed = mid.SeqVector{4, 0, 9}
	if err := tr.Condemn(2, 12); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Message{
		"ready, no labels":  msg(0, 5),
		"ready, two labels": msg(1, 1, mid.MID{Proc: 0, Seq: 4}, mid.MID{Proc: 2, Seq: 9}),
		"waiting":           msg(1, 3, mid.MID{Proc: 0, Seq: 7}),
		"doomed":            msg(1, 1, mid.MID{Proc: 2, Seq: 12}),
	}
	for name, m := range cases {
		if got := testing.AllocsPerRun(200, func() {
			tr.Ready(m)
			tr.Doomed(m)
			Ready(m, tr.processed)
		}); got != 0 {
			t.Errorf("%s: Ready/Doomed allocate %v objects per call, want 0", name, got)
		}
	}
	next := mid.Seq(0)
	plain, labelled := &Message{}, &Message{Deps: mid.DepList{{Proc: 0, Seq: 4}, {Proc: 2, Seq: 9}}}
	if got := testing.AllocsPerRun(200, func() {
		next++
		plain.ID, labelled.ID = mid.MID{Proc: 0, Seq: 4 + next}, mid.MID{Proc: 1, Seq: next}
		if err := tr.Process(plain); err != nil {
			t.Fatal(err)
		}
		if err := tr.Process(labelled); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Process allocates %v objects per call, want 0", got)
	}
}

// BenchmarkDeliveryReadyTest measures the causal readiness test on a warm
// tracker.
func BenchmarkDeliveryReadyTest(b *testing.B) {
	tr := NewTracker(40)
	for q := 0; q < 40; q++ {
		for s := mid.Seq(1); s <= 10; s++ {
			if err := tr.Process(&Message{ID: mid.MID{Proc: mid.ProcID(q), Seq: s}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	m := &Message{
		ID:   mid.MID{Proc: 3, Seq: 11},
		Deps: mid.DepList{{Proc: 7, Seq: 10}, {Proc: 20, Seq: 9}, {Proc: 39, Seq: 10}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tr.Ready(m) {
			b.Fatal("should be ready")
		}
	}
}
