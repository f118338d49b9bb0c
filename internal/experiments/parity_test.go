package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// The digests below were recorded at the commit before send-on-submit
// (core.Process.Flush) landed. The simulator and core.Cluster never call
// Flush, so they stay the lockstep reference: every figure, table and
// processing log for a fixed seed must stay byte-identical. A legitimate
// change to the simulated protocol re-records them — and says so.
const (
	clusterLogDigest = "60cdd08c930eb07491f426644be4e1ede7e32681d56fd28cc0bbd0beacabfdcf"
	figuresDigest    = "b29c706e20dbcb27d5b0ee8faccb486b5d9c1de0498da8a2e8e0a371b76ec1a3"
)

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// TestClusterLogMatchesLockstepReference hashes what every member processed,
// in order, plus the protocol counters, for a faulty seeded run with batching
// and flow control on, and audits the run against Definition 3.2.
func TestClusterLogMatchesLockstepReference(t *testing.T) {
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{N: 5, K: 3, R: 8, SelfExclusion: true, BatchMax: 4, HistoryThreshold: 40},
		Seed:   42,
		Injector: faultrt.Multi{
			faultrt.CrashAt{Proc: 2, At: sim.StartOfSubrun(4).Duration()},
			&faultrt.DropEvery{N: 11, Side: faultrt.AtSend},
		},
		Checker: faultrt.NewChecker(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(core.RunOptions{
		MaxRounds: 400, MinRounds: 80,
		OnRound: func(round int) {
			if round%2 != 0 || round >= 60 {
				return
			}
			for _, p := range c.ActiveSet() {
				for k := 0; k < 3; k++ {
					if _, err := c.SubmitCausal(p, []byte(fmt.Sprintf("m%d-%d-%d", p, round, k))); err != nil {
						t.Fatal(err)
					}
				}
			}
		},
		StopWhenQuiescent: true, DrainSubruns: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("rounds=%d quiescent=%d left=%v\n", res.Rounds, res.QuiescentAtRound, c.Left)
	for i := 0; i < c.N(); i++ {
		st := c.Proc(mid.ProcID(i)).Stats
		out += fmt.Sprintf("p%d gen=%d proc=%d disc=%d rec=%d ret=%d dec=%d dup=%d bat=%d log=%v\n", i,
			st.Generated, st.ProcessedN, st.Discarded, st.Recoveries, st.Retransmits,
			st.Decisions, st.Duplicates, st.Batches, c.Log[i])
		if st.EagerBroadcasts != 0 {
			t.Errorf("p%d: the simulated cluster took %d eager send opportunities; it must stay lockstep", i, st.EagerBroadcasts)
		}
		if st.EarlySubruns != 0 {
			t.Errorf("p%d: the simulated cluster opened %d subruns on arrivals; it must stay lockstep", i, st.EarlySubruns)
		}
	}
	if got := digest(out); got != clusterLogDigest {
		t.Errorf("core.Cluster output for seed 42 changed: digest %s, want %s", got, clusterLogDigest)
	}
	if v := c.Check(); len(v) != 0 {
		t.Errorf("the reference run violates Definition 3.2: %v", v)
	}
}

// TestFiguresMatchLockstepReference hashes the CSV of every experiment at a
// reduced, seeded size.
func TestFiguresMatchLockstepReference(t *testing.T) {
	var out string
	add := func(name, csv string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out += name + "\n" + csv
	}
	f4, err := Fig4(Fig4Config{N: 8, K: 3, Loads: []float64{0.2, 0.6, 1.0}, Subruns: 80, Crashes: 3, Seed: 1})
	add("fig4", f4.CSV(), err)
	f5, err := Fig5(Fig5Config{N: 10, K: 2, Fs: []int{0, 1, 2}, Seed: 1})
	add("fig5", f5.CSV(), err)
	t1cfg := DefaultTable1()
	t1cfg.Ns = []int{5, 10}
	t1, err := Table1(t1cfg)
	add("table1", t1.CSV(), err)
	f6cfg := DefaultFig6(8)
	f6a, err := Fig6a(f6cfg)
	add("fig6a", f6a.CSV(), err)
	f6b, err := Fig6b(f6cfg)
	add("fig6b", f6b.CSV(), err)
	th, err := Throughput(ThroughputConfig{N: 8, K: 2, Subruns: 60, CrashAt: 15, Seed: 1})
	add("throughput", th.CSV(), err)
	ab, err := Ablation(DefaultAblation())
	add("ablation", ab.CSV(), err)
	if got := digest(out); got != figuresDigest {
		t.Errorf("experiment outputs changed: digest %s, want %s", got, figuresDigest)
	}
}
