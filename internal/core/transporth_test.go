package core

import (
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// TestTransportHShiftsRecoveryIntoTransport exercises the Section 5 trade:
// with h > 1 the transport's retransmissions repair subnet loss, so the
// protocol performs (almost) no recovery from history; with h = 1 the same
// loss surfaces as process omissions repaired from history.
func TestTransportHShiftsRecoveryIntoTransport(t *testing.T) {
	run := func(h int) (recoveries, retries int) {
		cfg := baseCfg(5)
		cfg.K = 3
		c := auditedCluster(t, ClusterConfig{
			Config:     cfg,
			Seed:       11,
			TransportH: h,
			Injector: faultrt.During{
				From: 0, To: (12 * sim.TicksPerRTD).Duration(),
				Inner: faultrt.NewDropRate(0.04, faultrt.AtSend, 77),
			},
		})
		res, err := c.Run(RunOptions{
			MaxRounds: 600, MinRounds: 60,
			OnRound:           steadyWorkload(c, 2, 15),
			StopWhenQuiescent: true, DrainSubruns: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.QuiescentAtRound < 0 {
			t.Fatalf("h=%d: never quiescent (left=%v)", h, c.Left)
		}
		audit(t, c)
		for i := 0; i < c.N(); i++ {
			recoveries += c.Proc(mid.ProcID(i)).Stats.Recoveries
			if e := c.TransportEntity(mid.ProcID(i)); e != nil {
				retries += e.Stats.Retries
			}
		}
		return recoveries, retries
	}
	rec1, ret1 := run(1)
	rec4, ret4 := run(4)
	if ret1 != 0 {
		t.Errorf("h=1 must not produce transport retries, got %d", ret1)
	}
	if rec1 == 0 {
		t.Error("h=1 under loss should recover from history")
	}
	if ret4 == 0 {
		t.Error("h=4 under loss should retransmit in the transport")
	}
	if rec4 >= rec1 {
		t.Errorf("h=4 should reduce history recoveries: %d vs %d at h=1", rec4, rec1)
	}
}

// TestTransportHReliableEquivalence: without failures, both configurations
// converge identically (the transport layer is transparent).
func TestTransportHReliableEquivalence(t *testing.T) {
	for _, h := range []int{1, 3} {
		c, err := NewCluster(ClusterConfig{Config: baseCfg(4), Seed: 12, TransportH: h})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(RunOptions{
			MaxRounds: 300, MinRounds: 40,
			OnRound:           steadyWorkload(c, 2, 10),
			StopWhenQuiescent: true, DrainSubruns: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.QuiescentAtRound < 0 {
			t.Fatalf("h=%d: never quiescent", h)
		}
		for i := 0; i < 4; i++ {
			if v := c.Proc(mid.ProcID(i)).Processed(); v.Sum() != 40 {
				t.Fatalf("h=%d: proc %d processed %d, want 40", h, i, v.Sum())
			}
		}
	}
}
