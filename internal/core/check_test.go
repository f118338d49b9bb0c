package core

import (
	"slices"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// TestClusterFeedsCheckerOnline runs a seeded group whose member 2 crashes
// and rejoins, with a Checker and an Observe attached. Check is clean; the
// crashed incarnation is halted, so a message hand-fed for it after the crash
// round is the one fail-stop breach of an otherwise identical run; Observe is
// asked once per incarnation; and Left, which urcgc-sim's "self-excluded"
// line and the parity digest read, holds self-exclusions only, not the crash.
func TestClusterFeedsCheckerOnline(t *testing.T) {
	const victim = 2
	run := func(feed bool) ([]faultrt.Violation, mid.MID, []int) {
		asked := make([]int, 5)
		c := auditedCluster(t, ClusterConfig{
			Config: Config{N: 5, K: 2, R: 6, SelfExclusion: true},
			Seed:   7,
			Injector: crashWindow{
				proc: victim, at: sim.StartOfRound(40).Duration(), until: sim.StartOfRound(160).Duration(),
			},
			Observe: func(_ *Cluster, p mid.ProcID) Callbacks {
				asked[p]++
				return Callbacks{}
			},
		})
		var fed mid.MID
		_, err := c.Run(RunOptions{
			MaxRounds: 2400, MinRounds: 320,
			StopWhenQuiescent: true, DrainSubruns: 8,
			OnRound: func(round int) {
				switch round {
				case 100:
					if _, left := c.Left[victim]; left {
						t.Errorf("the crash shows in Left: %v", c.Left)
					}
					if feed {
						fed = mid.MID{Proc: 0, Seq: c.Proc(victim).Processed()[0] + 1}
						c.cfg.Checker.Record(victim, &causal.Message{ID: fed})
					}
				case 160:
					if err := c.Rejoin(victim); err != nil {
						t.Fatal(err)
					}
				}
				if round%8 == 0 && round < 240 {
					for _, q := range []mid.ProcID{0, 1, 3} {
						if _, err := c.SubmitCausal(q, []byte("w")); err != nil {
							t.Fatal(err)
						}
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Left) != 0 {
			t.Errorf("Left = %v, want no self-exclusion", c.Left)
		}
		if p := c.Proc(victim); !p.Running() || p.Joining() {
			t.Fatal("the rejoined member never made it back")
		}
		return c.Check(), fed, asked
	}

	v, _, asked := run(false)
	if len(v) != 0 {
		t.Fatalf("clean run: %v", v)
	}
	if want := []int{1, 1, 2, 1, 1}; !slices.Equal(asked, want) {
		t.Errorf("Observe asked %v times per process, want %v: once per incarnation", asked, want)
	}
	v, fed, _ := run(true)
	if want := []faultrt.Violation{{Invariant: "fail-stop", Node: victim, Msg: fed, Detail: "processed after halting"}}; !slices.Equal(v, want) {
		t.Errorf("hand-fed run: %v, want %v", v, want)
	}
}

// TestLeaveCountsAsHalt: a member that self-excluded is no survivor, so what
// it never processed is no atomicity breach.
func TestLeaveCountsAsHalt(t *testing.T) {
	ck := faultrt.NewChecker()
	c, err := NewCluster(ClusterConfig{Config: baseCfg(3), Checker: ck})
	if err != nil {
		t.Fatal(err)
	}
	m := &causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}
	ck.Record(0, m)
	ck.Record(1, m)
	c.Proc(2).leave(Suicide)
	if v := c.Check(); len(v) != 0 {
		t.Errorf("left process should be exempt: %v", v)
	}
}

// TestCrashedProcessExemptFromAtomicity: a member seen crashed is no
// survivor either.
func TestCrashedProcessExemptFromAtomicity(t *testing.T) {
	ck := faultrt.NewChecker()
	c, err := NewCluster(ClusterConfig{Config: baseCfg(2), Checker: ck, Injector: faultrt.CrashAt{Proc: 1, At: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(0, &causal.Message{ID: mid.MID{Proc: 0, Seq: 1}})
	if _, err := c.Run(RunOptions{MaxRounds: 2}); err != nil {
		t.Fatal(err)
	}
	if v := c.Check(); len(v) != 0 {
		t.Errorf("crashed process should be exempt: %v", v)
	}
}

// TestDetectsProcessingAfterHalt: processing by a member after the round it
// is seen crashed is a fail-stop breach. What it processed before that round
// precedes the halt, and a rejoined incarnation processes again, owing what
// lies above its join vector.
func TestDetectsProcessingAfterHalt(t *testing.T) {
	m1, m2 := &causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}, &causal.Message{ID: mid.MID{Proc: 0, Seq: 2}}
	ck := faultrt.NewChecker()
	c, err := NewCluster(ClusterConfig{Config: baseCfg(2), Checker: ck, Injector: faultrt.CrashAt{Proc: 0, At: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(RunOptions{MaxRounds: 2}); err != nil {
		t.Fatal(err)
	}
	ck.Record(0, m1)
	v := c.Check()
	if !slices.ContainsFunc(v, func(v faultrt.Violation) bool { return v.Invariant == "fail-stop" }) {
		t.Errorf("post-crash processing not detected: %v", v)
	}

	ck = faultrt.NewChecker()
	c, err = NewCluster(ClusterConfig{Config: baseCfg(2), Checker: ck, Injector: crashWindow{
		proc: 1, at: sim.StartOfRound(1).Duration(), until: sim.StartOfRound(3).Duration(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(RunOptions{MaxRounds: 4, OnRound: func(round int) {
		switch round {
		case 0:
			ck.Record(0, m1)
		case 1: // before the round's crash check
			ck.Record(1, m1)
		case 2:
			ck.Record(0, m2)
		case 3:
			if err := c.Rejoin(1); err != nil {
				t.Fatal(err)
			}
			ck.Restart(1, mid.SeqVector{1, 0})
			ck.Record(1, m2)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Check(); len(v) != 0 {
		t.Errorf("rejoined incarnation flagged: %v", v)
	}
}

// checkedCluster builds an n-member cluster judged by a fresh Checker.
func checkedCluster(t *testing.T, n int) (*Cluster, *faultrt.Checker) {
	t.Helper()
	ck := faultrt.NewChecker()
	c, err := NewCluster(ClusterConfig{Config: baseCfg(n), Checker: ck})
	if err != nil {
		t.Fatal(err)
	}
	return c, ck
}

func hasInvariant(v []faultrt.Violation, inv string) bool {
	return slices.ContainsFunc(v, func(v faultrt.Violation) bool { return v.Invariant == inv })
}

// TestCleanLogVerifies: a causal history every survivor processed in order
// is clean.
func TestCleanLogVerifies(t *testing.T) {
	c, ck := checkedCluster(t, 2)
	a := &causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}
	b := &causal.Message{ID: mid.MID{Proc: 1, Seq: 1}, Deps: mid.DepList{a.ID}}
	ck.Record(0, a)
	ck.Record(1, a)
	ck.Record(1, b)
	ck.Record(0, b)
	if v := c.Check(); len(v) != 0 {
		t.Errorf("clean log produced violations: %v", v)
	}
}

// TestDetectsOrderingViolation: processing a dependent message before its
// dependency breaks uniform ordering.
func TestDetectsOrderingViolation(t *testing.T) {
	c, ck := checkedCluster(t, 2)
	a := &causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}
	b := &causal.Message{ID: mid.MID{Proc: 1, Seq: 1}, Deps: mid.DepList{a.ID}}
	// p0 processes the dependent message before its dependency.
	ck.Record(0, b)
	ck.Record(0, a)
	if v := c.Check(); !hasInvariant(v, "uniform-ordering") {
		t.Errorf("ordering violation not detected: %v", v)
	}
}

// TestDetectsSequenceGap: processing an origin's second message without its
// first is a FIFO hole, an ordering breach.
func TestDetectsSequenceGap(t *testing.T) {
	c, ck := checkedCluster(t, 2)
	ck.Record(1, &causal.Message{ID: mid.MID{Proc: 0, Seq: 2}}) // skipped (0,1)
	if v := c.Check(); !hasInvariant(v, "uniform-ordering") {
		t.Errorf("gap not detected: %v", v)
	}
}

// TestDetectsSurvivorDivergence: a message one survivor processed and
// another never did breaks uniform atomicity when nobody halted.
func TestDetectsSurvivorDivergence(t *testing.T) {
	c, ck := checkedCluster(t, 2)
	ck.Record(0, &causal.Message{ID: mid.MID{Proc: 0, Seq: 1}})
	// p1 never processes it and nobody halted.
	if v := c.Check(); !hasInvariant(v, "uniform-atomicity") {
		t.Errorf("divergence not detected: %v", v)
	}
}
