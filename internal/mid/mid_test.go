package mid

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMIDIsZero(t *testing.T) {
	if !(MID{}).IsZero() {
		t.Error("zero MID should report IsZero")
	}
	if (MID{Proc: 0, Seq: 1}).IsZero() {
		t.Error("p0#1 is a real message")
	}
	if (MID{Proc: 3, Seq: 0}).IsZero() != true {
		t.Error("seq 0 is never a real message")
	}
}

func TestMIDPrevNext(t *testing.T) {
	m := MID{Proc: 2, Seq: 5}
	if got := m.Prev(); got != (MID{Proc: 2, Seq: 4}) {
		t.Errorf("Prev = %v", got)
	}
	if got := m.Next(); got != (MID{Proc: 2, Seq: 6}) {
		t.Errorf("Next = %v", got)
	}
	first := MID{Proc: 2, Seq: 1}
	if got := first.Prev(); !got.IsZero() {
		t.Errorf("Prev of first message should be zero, got %v", got)
	}
}

func TestMIDLessIsTotalOrder(t *testing.T) {
	ms := []MID{{0, 2}, {1, 1}, {0, 1}, {2, 9}, {1, 7}}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Less(ms[j]) })
	want := []MID{{0, 1}, {0, 2}, {1, 1}, {1, 7}, {2, 9}}
	for i := range ms {
		if ms[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, ms[i], want[i])
		}
	}
}

func TestMIDString(t *testing.T) {
	if got := (MID{Proc: 3, Seq: 17}).String(); got != "p3#17" {
		t.Errorf("String = %q", got)
	}
	if got := (MID{}).String(); got != "p?#0" {
		t.Errorf("zero String = %q", got)
	}
}

func TestDepListCanonical(t *testing.T) {
	d := DepList{{2, 3}, {0, 1}, {2, 5}, {0, 1}, {1, 4}}
	got := d.Canonical()
	want := DepList{{0, 1}, {1, 4}, {2, 5}}
	if len(got) != len(want) {
		t.Fatalf("Canonical = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Canonical = %v, want %v", got, want)
		}
	}
}

func TestDepListCanonicalKeepsHighestSeq(t *testing.T) {
	d := DepList{{0, 9}, {0, 2}, {0, 5}}
	got := d.Canonical()
	if len(got) != 1 || got[0] != (MID{0, 9}) {
		t.Fatalf("Canonical = %v, want [p0#9]", got)
	}
}

// TestDepListCanonicalAllocFree pins the hot-path property: Submit and the
// waiting path canonicalize a label list per message, so it must cost no
// allocation whatever the input order.
func TestDepListCanonicalAllocFree(t *testing.T) {
	src := DepList{{4, 3}, {2, 3}, {0, 1}, {2, 5}, {0, 1}, {1, 4}, {3, 9}}
	d := make(DepList, len(src))
	if got := testing.AllocsPerRun(200, func() {
		copy(d, src)
		d.Canonical()
	}); got != 0 {
		t.Errorf("Canonical allocates %v objects per call, want 0", got)
	}
}

func TestDepListCanonicalEmptyAndSingle(t *testing.T) {
	if got := (DepList{}).Canonical(); len(got) != 0 {
		t.Errorf("empty Canonical = %v", got)
	}
	d := DepList{{1, 1}}
	if got := d.Canonical(); len(got) != 1 || got[0] != (MID{1, 1}) {
		t.Errorf("single Canonical = %v", got)
	}
}

func TestDepListContainsAndCovers(t *testing.T) {
	d := DepList{{0, 3}, {2, 7}}
	if !d.Contains(MID{0, 3}) {
		t.Error("should contain p0#3")
	}
	if d.Contains(MID{0, 2}) {
		t.Error("should not contain p0#2")
	}
	if !d.Covers(MID{0, 2}) {
		t.Error("p0#3 covers p0#2")
	}
	if !d.Covers(MID{2, 7}) {
		t.Error("covers its own entry")
	}
	if d.Covers(MID{2, 8}) {
		t.Error("p2#7 does not cover p2#8")
	}
	if d.Covers(MID{1, 1}) {
		t.Error("no entry for p1")
	}
}

func TestDepListClone(t *testing.T) {
	d := DepList{{0, 1}, {1, 2}}
	c := d.Clone()
	c[0] = MID{5, 5}
	if d[0] != (MID{0, 1}) {
		t.Error("Clone should be independent")
	}
	if (DepList)(nil).Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestSeqVectorMaxMin(t *testing.T) {
	a := SeqVector{1, 5, 3}
	b := SeqVector{2, 4, 3}
	a.MaxInto(b)
	if !a.Equal(SeqVector{2, 5, 3}) {
		t.Errorf("MaxInto = %v", a)
	}
	a.MinInto(SeqVector{1, 9, 2})
	if !a.Equal(SeqVector{1, 5, 2}) {
		t.Errorf("MinInto = %v", a)
	}
}

func TestSeqVectorDominates(t *testing.T) {
	a := SeqVector{2, 2, 2}
	if !a.Dominates(SeqVector{1, 2, 0}) {
		t.Error("a should dominate")
	}
	if a.Dominates(SeqVector{3, 0, 0}) {
		t.Error("a should not dominate")
	}
	// Longer other vector with nonzero tail.
	if a.Dominates(SeqVector{1, 1, 1, 1}) {
		t.Error("nonzero tail beyond len(a) breaks dominance")
	}
	if !a.Dominates(SeqVector{1, 1, 1, 0}) {
		t.Error("zero tail beyond len(a) is fine")
	}
}

func TestSeqVectorSumAndClone(t *testing.T) {
	a := SeqVector{1, 2, 3}
	if a.Sum() != 6 {
		t.Errorf("Sum = %d", a.Sum())
	}
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone should be independent")
	}
}

// Property: Canonical is idempotent and its result is sorted, duplicate-free
// per process, and covers every input element.
func TestDepListCanonicalProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		d := make(DepList, 0, len(raw))
		for _, r := range raw {
			d = append(d, MID{Proc: ProcID(r % 7), Seq: Seq(r%13) + 1})
		}
		orig := d.Clone()
		c := d.Canonical()
		// Sorted and unique per proc.
		for i := 1; i < len(c); i++ {
			if !c[i-1].Less(c[i]) || c[i-1].Proc == c[i].Proc {
				return false
			}
		}
		// Covers every input.
		for _, m := range orig {
			if !c.Covers(m) {
				return false
			}
		}
		// Idempotent.
		c2 := c.Clone().Canonical()
		if len(c2) != len(c) {
			return false
		}
		for i := range c {
			if c[i] != c2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MaxInto yields a vector that dominates both inputs, and MinInto
// yields one dominated by both.
func TestSeqVectorLatticeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		a, b := NewSeqVector(n), NewSeqVector(n)
		for i := 0; i < n; i++ {
			a[i], b[i] = Seq(rng.Intn(20)), Seq(rng.Intn(20))
		}
		up := a.Clone()
		up.MaxInto(b)
		if !up.Dominates(a) || !up.Dominates(b) {
			t.Fatalf("join %v of %v,%v does not dominate", up, a, b)
		}
		down := a.Clone()
		down.MinInto(b)
		if !a.Dominates(down) || !b.Dominates(down) {
			t.Fatalf("meet %v of %v,%v not dominated", down, a, b)
		}
	}
}
