package cbcast

import (
	"fmt"
	"math"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

func run(t *testing.T, cc ClusterConfig, rounds int, onRound func(c *Cluster, round int)) *Cluster {
	t.Helper()
	c, err := NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(rounds, func(r int) {
		if onRound != nil {
			onRound(c, r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func everyOther(perProc int) func(c *Cluster, round int) {
	return func(c *Cluster, round int) {
		if round%2 != 0 || round/2 >= perProc {
			return
		}
		for i := 0; i < c.N(); i++ {
			if c.Crashed(mid.ProcID(i)) {
				continue
			}
			c.Submit(mid.ProcID(i), []byte(fmt.Sprintf("m%d-%d", i, round/2)))
		}
	}
}

func TestReliableDeliveryAllToAll(t *testing.T) {
	c := run(t, ClusterConfig{Config: Config{N: 4, K: 3}, Seed: 1}, 100, everyOther(8))
	for i := 0; i < 4; i++ {
		if got := len(c.DeliveredLog[i]); got != 32 {
			t.Errorf("proc %d delivered %d, want 32", i, got)
		}
	}
}

func TestCausalDeliveryOrder(t *testing.T) {
	// p0 sends a; p1 delivers a then sends b (causally after a); every
	// process must deliver a before b.
	c, err := NewCluster(ClusterConfig{Config: Config{N: 3, K: 3}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(40, func(round int) {
		switch round {
		case 0:
			c.Submit(0, []byte("a"))
		case 2:
			// By round 2, p1 has delivered a (sub-round latency).
			if c.Proc(1).VT()[0] != 1 {
				t.Fatal("p1 should have delivered a before sending b")
			}
			c.Submit(1, []byte("b"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		log := c.DeliveredLog[i]
		posA, posB := -1, -1
		for j, id := range log {
			if id == (mid.MID{Proc: 0, Seq: 1}) {
				posA = j
			}
			if id == (mid.MID{Proc: 1, Seq: 1}) {
				posB = j
			}
		}
		if posA < 0 || posB < 0 || posA > posB {
			t.Errorf("proc %d delivered a at %d, b at %d", i, posA, posB)
		}
	}
}

func TestStabilityCompactsRetainedBuffer(t *testing.T) {
	c := run(t, ClusterConfig{Config: Config{N: 4, K: 3}, Seed: 3}, 160, everyOther(8))
	for i := 0; i < 4; i++ {
		if got := c.Proc(mid.ProcID(i)).RetainedLen(); got != 0 {
			t.Errorf("proc %d retains %d unstable messages after quiet period", i, got)
		}
	}
}

func TestPiggybackDominatesControlTrafficUnderLoad(t *testing.T) {
	c := run(t, ClusterConfig{Config: Config{N: 6, K: 3}, Seed: 4}, 120, everyOther(30))
	load := c.Net().Load()
	// Under continuous load stability rides on data; explicit acks only
	// appear in the drain tail. CBCAST control messages must be well below
	// urcgc's 2(n-1) per subrun (= 10/subrun here, 600 over the run).
	if acks := load.Counts[wire.KindCBAck]; acks > 300 {
		t.Errorf("explicit acks = %d, piggyback should dominate", acks)
	}
	if fl := load.Counts[wire.KindCBFlushReq]; fl != 0 {
		t.Errorf("no flush under reliable conditions, got %d", fl)
	}
}

func TestCrashTriggersFlushAndViewInstall(t *testing.T) {
	failAt := sim.StartOfSubrun(6)
	c := run(t, ClusterConfig{
		Config:   Config{N: 5, K: 2},
		Seed:     5,
		Injector: faultrt.CrashAt{Proc: 3, At: failAt.Duration()},
	}, 400, everyOther(40))
	// All survivors must have installed a view excluding 3.
	for i := 0; i < 5; i++ {
		if i == 3 {
			continue
		}
		p := c.Proc(mid.ProcID(i))
		if p.Alive(3) {
			t.Errorf("proc %d still has 3 in view (epoch %d)", i, p.Epoch())
		}
		if p.Suspended() {
			t.Errorf("proc %d still suspended at end", i)
		}
	}
	tRTD := c.AgreementRTD(1, failAt)
	if tRTD < 0 {
		t.Fatal("epoch 1 never installed everywhere")
	}
	// The flush should cost on the order of 5-7 phases of 2K subruns:
	// far more than urcgc's 2K+f = 4. Assert it is at least 2K+2 and
	// bounded by a generous multiple.
	if tRTD < float64(2*2+2) || tRTD > 60 {
		t.Errorf("CBCAST agreement T = %.1f rtd, expected blocking-flush magnitude", tRTD)
	}
	// Suspension actually happened (the blocking cost urcgc avoids).
	suspended := int64(0)
	for i := 0; i < 5; i++ {
		if i != 3 {
			suspended += c.Proc(mid.ProcID(i)).Stats.SuspendedT
		}
	}
	if suspended == 0 {
		t.Error("flush should have suspended processing")
	}
}

func TestSurvivorsConvergeAfterCrash(t *testing.T) {
	failAt := sim.StartOfSubrun(6)
	c := run(t, ClusterConfig{
		Config:   Config{N: 4, K: 2},
		Seed:     6,
		Injector: faultrt.CrashAt{Proc: 2, At: failAt.Duration()},
	}, 500, everyOther(25))
	// After the run, survivors must agree on delivered counts per sender.
	var ref []uint32
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue
		}
		vt := c.Proc(mid.ProcID(i)).VT()
		if ref == nil {
			ref = vt
			continue
		}
		for q := range ref {
			if ref[q] != vt[q] {
				t.Fatalf("survivor VTs disagree: %v vs %v", ref, vt)
			}
		}
	}
}

func TestAgreementGrowsWithManagerCrash(t *testing.T) {
	// f=0: crash a non-manager member. f=1: additionally crash the manager
	// right after it starts the flush, forcing a restart by the next
	// manager. T must grow by roughly 5K subruns.
	k := 2
	base := func(extra faultrt.Injector) float64 {
		inj := faultrt.Multi{faultrt.CrashAt{Proc: 4, At: sim.StartOfSubrun(6).Duration()}}
		if extra != nil {
			inj = append(inj, extra)
		}
		c := run(t, ClusterConfig{Config: Config{N: 5, K: k}, Seed: 7, Injector: inj}, 700, everyOther(60))
		// The final epoch installed everywhere among survivors:
		var last int32
		for e := int32(1); e <= 4; e++ {
			ok := true
			for i := 0; i < 5; i++ {
				if c.Crashed(mid.ProcID(i)) {
					continue
				}
				if _, has := c.ViewInstalls[i][e]; !has {
					ok = false
				}
			}
			if ok {
				last = e
			}
		}
		if last == 0 {
			t.Fatal("no epoch installed everywhere")
		}
		return c.AgreementRTD(last, sim.StartOfSubrun(6))
	}
	t0 := base(nil)
	t1 := base(faultrt.CrashAt{Proc: 0, At: (sim.StartOfSubrun(6) + 3*sim.TicksPerSubrun).Duration()})
	if !(t1 > t0+float64(k)) {
		t.Errorf("manager crash should lengthen agreement: T(f=0)=%.1f T(f=1)=%.1f", t0, t1)
	}
	if math.IsNaN(t0) || math.IsNaN(t1) {
		t.Error("agreement unmeasured")
	}
}

func TestDelayDegradesDuringFlush(t *testing.T) {
	// Compare mean delay with and without a crash: the flush suspension
	// must visibly raise D (the paper's point about blocking protocols).
	reliable := run(t, ClusterConfig{Config: Config{N: 5, K: 3}, Seed: 8}, 400, everyOther(60))
	crashed := run(t, ClusterConfig{
		Config:   Config{N: 5, K: 3},
		Seed:     8,
		Injector: faultrt.CrashAt{Proc: 4, At: sim.StartOfSubrun(10).Duration()},
	}, 400, everyOther(60))
	d0, d1 := reliable.Delay.MeanRTD(), crashed.Delay.MeanRTD()
	if !(d1 > d0*1.5) {
		t.Errorf("flush should degrade delay: reliable %.2f rtd vs crash %.2f rtd", d0, d1)
	}
}

func TestConfigValidate(t *testing.T) {
	if (Config{N: 0, K: 1}).Validate() == nil {
		t.Error("N=0 invalid")
	}
	if (Config{N: 3, K: 0}).Validate() == nil {
		t.Error("K=0 invalid")
	}
	if (Config{N: 3, K: 2}).Validate() != nil {
		t.Error("valid config rejected")
	}
}

func TestEncodedSizes(t *testing.T) {
	d := &Data{Sender: 1, TS: make([]uint32, 5), Delivered: make([]uint32, 5), Payload: []byte("xy")}
	if got := d.EncodedSize(); got != 1+4+20+20+2+2 {
		t.Errorf("Data size = %d", got)
	}
	a := &Ack{Sender: 1, Delivered: make([]uint32, 5)}
	if got := a.EncodedSize(); got != 1+4+20 {
		t.Errorf("Ack size = %d", got)
	}
	f := &Flush{Sender: 1, Delivered: make([]uint32, 5), Unstable: []*Data{d}}
	if got := f.EncodedSize(); got != 1+4+4+20+2+(d.EncodedSize()-1) {
		t.Errorf("Flush size = %d", got)
	}
	v := &View{Alive: make([]bool, 9)}
	if got := v.EncodedSize(); got != 1+4+4+2 {
		t.Errorf("View size = %d", got)
	}
}
