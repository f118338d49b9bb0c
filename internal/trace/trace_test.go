package trace

import (
	"strings"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

func m(p mid.ProcID, s mid.Seq) mid.MID { return mid.MID{Proc: p, Seq: s} }

func TestCleanLogVerifies(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Process(0, 0, m(0, 1))
	r.Process(100, 1, m(0, 1))
	r.Generate(200, 1, m(1, 1), mid.DepList{m(0, 1)})
	r.Process(200, 1, m(1, 1))
	r.Process(300, 0, m(1, 1))
	if v := r.Verify(); len(v) != 0 {
		t.Errorf("clean log produced violations: %v", v)
	}
}

func TestDetectsOrderingViolation(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Generate(0, 1, m(1, 1), mid.DepList{m(0, 1)})
	// p0 processes the dependent message before its dependency.
	r.Process(10, 0, m(1, 1))
	r.Process(20, 0, m(0, 1))
	v := r.Verify()
	if !hasClause(v, "uniform-ordering") {
		t.Errorf("ordering violation not detected: %v", v)
	}
}

func TestDetectsSequenceGap(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Generate(0, 0, m(0, 2), nil)
	r.Process(10, 1, m(0, 2)) // skipped (0,1)
	v := r.Verify()
	if !hasClause(v, "uniform-ordering") {
		t.Errorf("gap not detected: %v", v)
	}
}

func TestDetectsSurvivorDivergence(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Process(0, 0, m(0, 1))
	// p1 never processes it and nobody halted.
	v := r.Verify()
	if !hasClause(v, "uniform-atomicity") {
		t.Errorf("divergence not detected: %v", v)
	}
}

func TestCrashedProcessExemptFromAtomicity(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Process(0, 0, m(0, 1))
	r.Crash(5, 1) // p1 crashed; its missing processing is fine
	if v := r.Verify(); len(v) != 0 {
		t.Errorf("crashed process should be exempt: %v", v)
	}
}

func TestDetectsProcessingAfterHalt(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Crash(5, 0)
	r.Process(10, 0, m(0, 1))
	v := r.Verify()
	if !hasClause(v, "fail-stop") {
		t.Errorf("post-crash processing not detected: %v", v)
	}

	// Processing at the crash instant precedes the halt, and a rejoined
	// incarnation processes again, owing what lies above its join vector.
	r = NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Generate(0, 0, m(0, 2), nil)
	r.Process(0, 0, m(0, 1))
	r.Process(5, 1, m(0, 1))
	r.Crash(5, 1)
	r.Process(10, 0, m(0, 2))
	r.Join(20, 1, mid.SeqVector{1, 0})
	r.Process(30, 1, m(0, 2))
	if v := r.Verify(); len(v) != 0 {
		t.Errorf("rejoined incarnation flagged: %v", v)
	}
}

func TestDetectsDiscardProcessedConflict(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Process(0, 0, m(0, 1))
	r.Process(1, 1, m(0, 1))
	r.Discard(5, 1, m(0, 1)) // p1 discards what it processed
	v := r.Verify()
	if !hasClause(v, "uniform-atomicity") {
		t.Errorf("discard/process conflict not detected: %v", v)
	}
}

func TestDetectsDiscardAtOneProcessedAtOther(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), nil)
	r.Generate(0, 0, m(0, 2), nil)
	// Keep the processed SETS equal in count but conflicting on discard:
	// p0 processes (0,1); p1 processes (0,1) too, then p1 discards (0,2)
	// while p0 processes (0,2).
	r.Process(0, 0, m(0, 1))
	r.Process(0, 1, m(0, 1))
	r.Process(1, 0, m(0, 2))
	r.Discard(2, 1, m(0, 2))
	v := r.Verify()
	if !hasClause(v, "uniform-atomicity") {
		t.Errorf("cross discard conflict not detected: %v", v)
	}
}

func TestLeaveCountsAsHalt(t *testing.T) {
	r := NewRecorder(3)
	r.Generate(0, 0, m(0, 1), nil)
	r.Process(0, 0, m(0, 1))
	r.Process(1, 1, m(0, 1))
	r.Leave(2, 2)
	if v := r.Verify(); len(v) != 0 {
		t.Errorf("left process should be exempt: %v", v)
	}
}

func TestDumpAndStrings(t *testing.T) {
	r := NewRecorder(2)
	r.Generate(0, 0, m(0, 1), mid.DepList{m(1, 3)})
	r.Process(sim.TicksPerRTD, 1, m(0, 1))
	r.Crash(2*sim.TicksPerRTD, 0)
	r.Join(3*sim.TicksPerRTD, 0, mid.SeqVector{1, 2})
	r.FastForward(3*sim.TicksPerRTD, 0, 1, 3)
	d := r.Dump()
	for _, want := range []string{"generate", "process", "crash", "p0#1", "join", "stable=", "fastfwd", "p1#3"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	if EvDiscard.String() != "discard" || Kind(99).String() == "" {
		t.Error("kind strings")
	}
}

func hasClause(vs []faultrt.Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}
