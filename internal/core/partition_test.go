package core

import (
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
)

// TestShortPartitionHeals: a cut shorter than the K detection window is
// just a burst of omissions — nobody is declared crashed, and after the
// heal every message is recovered from history and the group reconverges.
func TestShortPartitionHeals(t *testing.T) {
	k := 4
	cut := faultrt.Partition{
		From:  sim.StartOfSubrun(6).Duration(),
		To:    sim.StartOfSubrun(8).Duration(), // 2 subruns < K
		SideA: map[mid.ProcID]bool{0: true, 1: true, 2: true},
	}
	c := auditedCluster(t, ClusterConfig{
		Config:   Config{N: 6, K: k, R: 2*k + 2, SelfExclusion: true},
		Seed:     41,
		Injector: cut,
	})
	perProc := 12
	res, err := c.Run(RunOptions{
		MaxRounds: 600, MinRounds: 2 * 2 * perProc,
		OnRound:           steadyWorkload(c, 2, perProc),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatalf("never reconverged after heal; left=%v", c.Left)
	}
	if len(c.Left) != 0 {
		t.Fatalf("a sub-K partition must not evict anyone: %v", c.Left)
	}
	for i := 0; i < 6; i++ {
		p := mid.ProcID(i)
		if c.Proc(p).View().AliveCount() != 6 {
			t.Errorf("proc %d view shrank to %v", i, c.Proc(p).View())
		}
		for q := 0; q < 6; q++ {
			if got := c.Proc(p).Processed()[q]; got != mid.Seq(perProc) {
				t.Errorf("proc %d processed %d of p%d's, want %d", i, got, q, perProc)
			}
		}
	}
	audit(t, c)
}

// TestLongPartitionStaysSafe: a cut far longer than K violates the paper's
// resilience assumption (each side loses more than t=(n-1)/2 peers per
// subrun), so liveness is forfeit — both sides declare the other crashed,
// and on heal the colliding decisions drive mutual suicides. SAFETY must
// still hold: the audit finds no violation of Definition 3.2 among the
// survivors.
func TestLongPartitionStaysSafe(t *testing.T) {
	k := 2
	cut := faultrt.Partition{
		From:  sim.StartOfSubrun(6).Duration(),
		To:    sim.StartOfSubrun(16).Duration(), // 10 subruns >> K
		SideA: map[mid.ProcID]bool{0: true, 1: true},
	}
	c := auditedCluster(t, ClusterConfig{
		Config:   Config{N: 5, K: k, R: 2*k + 1, SelfExclusion: true},
		Seed:     42,
		Injector: cut,
	})
	_, err := c.Run(RunOptions{
		MaxRounds: 400,
		OnRound:   steadyWorkload(c, 2, 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever survived agrees (an empty survivor set is the
	// degenerate-but-safe outcome).
	audit(t, c)
	// The split was detected: at least one side excluded the other.
	excluded := false
	for i := 0; i < 5; i++ {
		if !c.Proc(mid.ProcID(i)).View().Alive(0) || !c.Proc(mid.ProcID(i)).View().Alive(4) {
			excluded = true
		}
	}
	if !excluded && len(c.Left) == 0 {
		t.Error("a 10-subrun partition should leave visible scars")
	}
}

// TestTwoSiteTopologyConverges runs the protocol over a heterogeneous
// latency model (two fast sites joined by a slow link): everything still
// converges within the rounds, with delays reflecting the topology.
func TestTwoSiteTopologyConverges(t *testing.T) {
	c := auditedCluster(t, ClusterConfig{
		Config: Config{N: 6, K: 3, R: 8, SelfExclusion: true},
		Seed:   43,
	})
	c.Net().SetLatency(simnet.TwoSiteLatency(
		map[mid.ProcID]bool{0: true, 1: true, 2: true},
		sim.TicksPerRound/10,   // fast LAN
		sim.TicksPerRound*8/10, // slow inter-site link
		sim.TicksPerRound/20,
	))
	perProc := 10
	res, err := c.Run(RunOptions{
		MaxRounds: 400, MinRounds: 2 * 2 * perProc,
		OnRound:           steadyWorkload(c, 2, perProc),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent over the two-site topology")
	}
	audit(t, c)
	if len(c.Left) != 0 {
		t.Errorf("slow links are not failures: %v", c.Left)
	}
}
