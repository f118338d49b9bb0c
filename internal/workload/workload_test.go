package workload

import (
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

func cluster(t *testing.T, n int, seed int64) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runWith(t *testing.T, c *core.Cluster, g *Generator, maxRounds, minRounds int) core.RunResult {
	t.Helper()
	res, err := c.Run(core.RunOptions{
		MaxRounds: maxRounds, MinRounds: minRounds,
		OnRound:           g.OnRound,
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBudgetedWorkloadDelivers(t *testing.T) {
	c := cluster(t, 4, 1)
	g := New(c, 7, WithPerProc(6), WithLimit(100))
	res := runWith(t, c, g, 400, 2*2*6)
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	if g.Submitted != 4*6 {
		t.Errorf("Submitted = %d, want 24", g.Submitted)
	}
	if !g.Done() {
		t.Error("budget should be exhausted")
	}
	for i := 0; i < 4; i++ {
		if got := c.Proc(mid.ProcID(i)).Processed().Sum(); got != 24 {
			t.Errorf("proc %d processed %d", i, got)
		}
	}
}

func TestShapesProduceExpectedLabels(t *testing.T) {
	for _, shape := range []Shape{Independent, Ring, Temporal, RandomPeer} {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			c := cluster(t, 4, 2)
			g := New(c, 9, WithShape(shape), WithPerProc(5))
			res := runWith(t, c, g, 400, 2*2*5)
			if res.QuiescentAtRound < 0 {
				t.Fatal("never quiescent")
			}
			if len(c.Log[0]) == 0 {
				t.Fatal("nothing processed")
			}
			// Every shape must still deliver the full budget everywhere.
			total := c.Proc(0).Processed().Sum()
			if total != 20 {
				t.Errorf("processed %d, want 20", total)
			}
		})
	}
}

func TestRateZeroSubmitsNothing(t *testing.T) {
	c := cluster(t, 3, 3)
	g := New(c, 1, WithRate(0))
	_, err := c.Run(core.RunOptions{MaxRounds: 20, OnRound: g.OnRound})
	if err != nil {
		t.Fatal(err)
	}
	if g.Submitted != 0 {
		t.Errorf("Submitted = %d", g.Submitted)
	}
	if g.Done() {
		t.Error("no budget set: never done")
	}
}

func TestLimitStopsSubmissions(t *testing.T) {
	c := cluster(t, 3, 4)
	g := New(c, 1, WithLimit(3)) // 3 subruns of workload at rate 1
	res := runWith(t, c, g, 200, 20)
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	if g.Submitted != 3*3 {
		t.Errorf("Submitted = %d, want 9", g.Submitted)
	}
}

func TestBurst(t *testing.T) {
	c := cluster(t, 3, 5)
	if err := Burst(c, 7, nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(core.RunOptions{
		MaxRounds: 300, MinRounds: 2 * 2 * 7,
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	for i := 0; i < 3; i++ {
		if got := c.Proc(mid.ProcID(i)).Processed().Sum(); got != 21 {
			t.Errorf("proc %d processed %d, want 21", i, got)
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	runOnce := func() int {
		c := cluster(t, 4, 11)
		g := New(c, 13, WithRate(0.5), WithLimit(20), WithShape(RandomPeer))
		runWith(t, c, g, 300, 2*20*2)
		return g.Submitted
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("same seeds, different submissions: %d vs %d", a, b)
	}
	if a == 0 {
		t.Error("nothing submitted")
	}
}

func TestShapeStrings(t *testing.T) {
	for s, want := range map[Shape]string{
		Independent: "independent", Ring: "ring", Temporal: "temporal",
		RandomPeer: "random-peer", Shape(9): "shape(?)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}
