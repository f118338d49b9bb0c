package cbcast

import (
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Config: Config{N: 0, K: 1}}); err == nil {
		t.Error("invalid config accepted")
	}
	c, err := NewCluster(ClusterConfig{Config: Config{N: 3, K: 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0, nil); err == nil {
		t.Error("non-positive maxRounds accepted")
	}
	if c.N() != 3 || c.Engine() == nil || c.Net() == nil {
		t.Error("accessors wrong")
	}
	if c.Crashed(0) {
		t.Error("nothing crashed under nil injector")
	}
}

func TestAgreementRTDUnmeasured(t *testing.T) {
	everyone := faultrt.Multi{}
	for p := mid.ProcID(0); p < 3; p++ {
		everyone = append(everyone, faultrt.CrashAt{Proc: p, At: 0})
	}
	for name, inj := range map[string]faultrt.Injector{
		"no live process installed": nil,
		"no process is live":        everyone,
	} {
		c, err := NewCluster(ClusterConfig{Config: Config{N: 3, K: 2}, Seed: 2, Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(10, nil); err != nil {
			t.Fatal(err)
		}
		if got := c.AgreementRTD(1, sim.StartOfSubrun(2)); got != -1 {
			t.Errorf("%s: AgreementRTD = %v, want -1", name, got)
		}
	}
}

func TestDelayMeasuredAcrossMembers(t *testing.T) {
	c := run(t, ClusterConfig{Config: Config{N: 3, K: 3}, Seed: 3}, 60, everyOther(5))
	// 5 messages x 3 senders x 3 deliverers = 45 samples.
	if got := c.Delay.Count(); got != 45 {
		t.Errorf("delay samples = %d, want 45", got)
	}
	if d := c.Delay.MeanRTD(); d < 0 || d > 1 {
		t.Errorf("mean delay = %v", d)
	}
}

func TestCrashedMemberStopsDelivering(t *testing.T) {
	failAt := sim.StartOfSubrun(3)
	c := run(t, ClusterConfig{
		Config:   Config{N: 3, K: 2},
		Seed:     4,
		Injector: faultrt.CrashAt{Proc: 2, At: failAt.Duration()},
	}, 200, everyOther(20))
	// The dead member's log froze around the crash.
	dead := len(c.Log[2])
	alive := len(c.Log[0])
	if dead >= alive {
		t.Errorf("dead member delivered %d, alive %d", dead, alive)
	}
	for _, id := range c.Log[2] {
		_ = id // log exists and is well-formed
	}
	if c.Crashed(0) || !c.Crashed(mid.ProcID(2)) {
		t.Error("Crashed accessor wrong")
	}
}

// BenchmarkCBCASTRun exercises the baseline end to end, at the shape of the
// urcgc Figure 4 benchmarks (n=10, full load for 120 subruns, seed 1), for
// comparison with them.
func BenchmarkCBCASTRun(b *testing.B) {
	b.ReportAllocs()
	var d float64
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(ClusterConfig{Config: Config{N: 10, K: 3}, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		err = c.Run(2*120+100, func(round int) {
			if round%2 != 0 || round/2 >= 120 {
				return
			}
			for p := 0; p < c.N(); p++ {
				c.Submit(mid.ProcID(p), make([]byte, 64))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		d = c.Delay.MeanRTD()
	}
	b.ReportMetric(d, "delay_rtd")
}
