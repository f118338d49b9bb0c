package group

import (
	"testing"

	"urcgc/internal/mid"
)

func TestNewViewAllAlive(t *testing.T) {
	v := NewView(4)
	if v.AliveCount() != 4 || v.N() != 4 {
		t.Errorf("AliveCount=%d N=%d", v.AliveCount(), v.N())
	}
	for i := 0; i < 4; i++ {
		if !v.Alive(mid.ProcID(i)) {
			t.Errorf("process %d should start alive", i)
		}
	}
	if v.Alive(-1) || v.Alive(4) {
		t.Error("out-of-range processes are not alive")
	}
}

func TestMarkCrashed(t *testing.T) {
	v := NewView(3)
	if !v.MarkCrashed(1) {
		t.Error("first MarkCrashed should change the view")
	}
	if v.MarkCrashed(1) {
		t.Error("second MarkCrashed should be a no-op")
	}
	if v.Alive(1) || v.AliveCount() != 2 {
		t.Error("process 1 should be removed")
	}
	set := v.AliveSet()
	if len(set) != 2 || set[0] != 0 || set[1] != 2 {
		t.Errorf("AliveSet = %v", set)
	}
	if got := v.String(); got != "{0,2}/3" {
		t.Errorf("String = %q", got)
	}
}

func TestApplyMask(t *testing.T) {
	v := NewView(4)
	v.MarkCrashed(3) // local knowledge
	removed := v.ApplyMask([]bool{true, false, true, true})
	if len(removed) != 1 || removed[0] != 1 {
		t.Errorf("removed = %v", removed)
	}
	// Mask believing 3 alive must not resurrect it.
	if v.Alive(3) {
		t.Error("crashes are permanent; mask must not resurrect")
	}
	if v.AliveCount() != 2 {
		t.Errorf("AliveCount = %d", v.AliveCount())
	}
	// Idempotent.
	if rem := v.ApplyMask([]bool{true, false, true, true}); rem != nil {
		t.Errorf("second apply removed %v", rem)
	}
}

func TestViewEqual(t *testing.T) {
	a, b := NewView(3), NewView(3)
	if !a.Equal(b) {
		t.Error("fresh views equal")
	}
	a.MarkCrashed(0)
	if a.Equal(b) {
		t.Error("diverged views unequal")
	}
	b.MarkCrashed(0)
	if !a.Equal(b) {
		t.Error("re-converged views equal")
	}
	if a.Equal(NewView(4)) {
		t.Error("different sizes unequal")
	}
}

func TestAttemptsObserve(t *testing.T) {
	v := NewView(3)
	a := NewAttempts(3, 2)
	// Subrun 1: process 2 silent.
	crashed := a.Observe([]bool{true, true, false}, v)
	if crashed != nil {
		t.Errorf("after 1 silent subrun, crashed = %v", crashed)
	}
	// Subrun 2: still silent -> reaches K=2.
	crashed = a.Observe([]bool{true, true, false}, v)
	if len(crashed) != 1 || crashed[0] != 2 {
		t.Errorf("crashed = %v, want [2]", crashed)
	}
}

func TestAttemptsResetOnContact(t *testing.T) {
	v := NewView(2)
	a := NewAttempts(2, 3)
	a.Observe([]bool{true, false}, v)
	a.Observe([]bool{true, false}, v)
	a.Observe([]bool{true, true}, v) // contact resets
	a.Observe([]bool{true, false}, v)
	crashed := a.Observe([]bool{true, false}, v)
	if crashed != nil {
		t.Errorf("counter should have reset; crashed = %v", crashed)
	}
	c := make([]uint8, 3)
	if a.CopyTo(c); c[1] != 2 {
		t.Errorf("counts = %v", c)
	}
}

func TestAttemptsSkipsCrashed(t *testing.T) {
	v := NewView(2)
	v.MarkCrashed(1)
	a := NewAttempts(2, 1)
	crashed := a.Observe([]bool{true, false}, v)
	if crashed != nil {
		t.Errorf("already-crashed process must not be re-declared: %v", crashed)
	}
}

func TestAttemptsLoadCirculation(t *testing.T) {
	v := NewView(3)
	a1 := NewAttempts(3, 3)
	a1.Observe([]bool{true, true, false}, v)
	a1.Observe([]bool{true, true, false}, v)
	// Next coordinator resumes from the circulated counters.
	a2 := NewAttempts(3, 3)
	carried := make([]uint8, 3)
	a1.CopyTo(carried)
	a2.Load(carried)
	crashed := a2.Observe([]bool{true, true, false}, v)
	if len(crashed) != 1 || crashed[0] != 2 {
		t.Errorf("circulated counters should reach K: crashed = %v", crashed)
	}
}

// TestAttemptsDeclareAtTheWidestK: K = 255, the most a decision's one-byte
// counter holds, declares a silent member at exactly its 255th silent subrun.
func TestAttemptsDeclareAtTheWidestK(t *testing.T) {
	v := NewView(2)
	a := NewAttempts(2, 255)
	heard := []bool{true, false}
	for s := 1; s <= 255; s++ {
		crashed := a.Observe(heard, v)
		if want := s == 255; (len(crashed) == 1 && crashed[0] == 1) != want || len(crashed) > 1 {
			t.Fatalf("silent subrun %d: declared %v, want declared=%v", s, crashed, want)
		}
	}
	c := make([]uint8, 2)
	a.CopyTo(c)
	if c[1] != 255 {
		t.Fatalf("counter = %d after 255 silent subruns, want 255", c[1])
	}
}

func TestResilience(t *testing.T) {
	cases := map[int]int{1: 0, 2: 0, 3: 1, 10: 4, 40: 19, 0: 0}
	for n, want := range cases {
		if got := Resilience(n); got != want {
			t.Errorf("Resilience(%d) = %d, want %d", n, got, want)
		}
	}
}
