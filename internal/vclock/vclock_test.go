package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTickMerge(t *testing.T) {
	a := New(3)
	a.Tick(1)
	a.Tick(1)
	b := New(3)
	b.Tick(0)
	a.Merge(b)
	if !a.Equal(VT{1, 2, 0}) {
		t.Errorf("merged = %v", a)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b VT
		want Ordering
	}{
		{VT{1, 0}, VT{1, 0}, Same},
		{VT{1, 0}, VT{1, 1}, Before},
		{VT{2, 1}, VT{1, 1}, After},
		{VT{1, 0}, VT{0, 1}, Concurrent},
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("case %d: Compare = %v, want %v", i, got, c.want)
		}
	}
}

func TestOrderingString(t *testing.T) {
	for o, s := range map[Ordering]string{Before: "before", After: "after", Same: "same", Concurrent: "concurrent"} {
		if o.String() != s {
			t.Errorf("%v", o)
		}
	}
}

func TestDeliverable(t *testing.T) {
	local := VT{2, 1, 0}
	// Next from sender 0 with no cross-run-ahead.
	if !Deliverable(VT{3, 1, 0}, 0, local) {
		t.Error("should be deliverable")
	}
	// Gap in sender's own sequence.
	if Deliverable(VT{4, 1, 0}, 0, local) {
		t.Error("gap must block")
	}
	// Already delivered.
	if Deliverable(VT{2, 1, 0}, 0, local) {
		t.Error("duplicate must not be deliverable")
	}
	// Cross entry runs ahead.
	if Deliverable(VT{3, 2, 0}, 0, local) {
		t.Error("cross dependency must block")
	}
	// Out-of-range sender.
	if Deliverable(VT{1, 0, 0}, 9, local) {
		t.Error("bad sender")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := VT{1, 2}
	b := a.Clone()
	b.Tick(0)
	if a[0] != 1 {
		t.Error("clone must be independent")
	}
}

// Property: Merge is the least upper bound — it dominates both inputs, and
// any vector dominating both inputs dominates the merge.
func TestMergeIsLUB(t *testing.T) {
	f := func(xs, ys [4]uint8) bool {
		a, b := New(4), New(4)
		for i := 0; i < 4; i++ {
			a[i], b[i] = uint32(xs[i]), uint32(ys[i])
		}
		m := a.Clone()
		m.Merge(b)
		if !a.LE(m) || !b.LE(m) {
			return false
		}
		// Anything dominating both dominates m.
		up := New(4)
		for i := range up {
			up[i] = a[i] + b[i]
		}
		return m.LE(up)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: simulating a causal history and delivering messages as soon as
// Deliverable admits them yields exactly one delivery per message at every
// process, in an order where Before-related timestamps are respected.
func TestDeliverableRespectsCausality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type msg struct {
		sender int
		ts     VT
	}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		// Generate a causal run: each process alternately sends and
		// "receives" some prior message (merging clocks).
		clocks := make([]VT, n)
		for i := range clocks {
			clocks[i] = New(n)
		}
		var msgs []msg
		for step := 0; step < 40; step++ {
			p := rng.Intn(n)
			if len(msgs) > 0 && rng.Intn(2) == 0 {
				m := msgs[rng.Intn(len(msgs))]
				clocks[p].Merge(m.ts)
				continue
			}
			clocks[p].Tick(p)
			msgs = append(msgs, msg{sender: p, ts: clocks[p].Clone()})
		}
		// Deliver at a fresh observer in random arrival order with retry.
		local := New(n)
		pending := append([]msg(nil), msgs...)
		rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
		delivered := 0
		for progress := true; progress; {
			progress = false
			rest := pending[:0]
			for _, m := range pending {
				if Deliverable(m.ts, m.sender, local) {
					local[m.sender]++
					delivered++
					progress = true
				} else {
					rest = append(rest, m)
				}
			}
			pending = rest
		}
		if delivered != len(msgs) || len(pending) != 0 {
			t.Fatalf("trial %d: delivered %d of %d", trial, delivered, len(msgs))
		}
	}
}

// BenchmarkVectorClockDeliverable measures the CBCAST delivery test.
func BenchmarkVectorClockDeliverable(b *testing.B) {
	local := New(40)
	ts := New(40)
	for i := range local {
		local[i] = uint32(i)
		ts[i] = uint32(i)
	}
	ts[5] = local[5] + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Deliverable(ts, 5, local) {
			b.Fatal("should deliver")
		}
	}
}
