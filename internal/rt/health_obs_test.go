package rt

import (
	"context"
	"fmt"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// TestProtocolHealthGauges runs a live cluster and asserts the protocol
// gauges actually move: the subrun/token position
// advances, decisions stamp their subrun, the stability frontier sum
// rises after full-group cleaning, and a kill shows up as a view change
// with a falling alive count.
func TestProtocolHealthGauges(t *testing.T) {
	reg := obs.New()
	cfg := liveConfig(3)
	cfg.Metrics = reg
	c := startCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < c.N(); i++ {
		if got := nodeGauge(reg, "core_alive_count", i); got != 3 {
			t.Errorf("node %d: core_alive_count = %d at start, want 3", i, got)
		}
	}

	const perNode = 4
	for k := 0; k < perNode; k++ {
		for i := 0; i < c.N(); i++ {
			if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte(fmt.Sprintf("h%d-%d", i, k)), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitConverged(t, c, mid.SeqVector{perNode, perNode, perNode}, 20*time.Second)

	// Token, decision and stability gauges must all have advanced; poll
	// for stability since full-group cleaning trails convergence.
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for i := 0; i < c.N(); i++ {
			if nodeGauge(reg, "core_stable_sum", i) < perNode*int64(c.N()) {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < c.N(); i++ {
				t.Logf("node %d core_stable_sum = %d", i, nodeGauge(reg, "core_stable_sum", i))
			}
			t.Fatal("stability frontier never covered the delivered burst")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// core_decision_subrun stamps the clock subrun, and arrivals may settle
	// the whole burst inside clock subrun 0: poll until the clock moved on.
	for i := 0; i < c.N(); i++ {
		for nodeGauge(reg, "core_decision_subrun", i) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d: core_decision_subrun never advanced", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < c.N(); i++ {
		if got := nodeGauge(reg, "core_subrun", i); got == 0 {
			t.Errorf("node %d: core_subrun never advanced", i)
		}
		if got := nodeGauge(reg, "core_coordinator", i); got < 0 || got >= int64(c.N()) {
			t.Errorf("node %d: core_coordinator = %d outside group", i, got)
		}
	}

	// Fail-stop node 2: survivors must declare it, which surfaces as one
	// view change and an alive count of 2 on each survivor.
	c.Node(2).Kill()
	deadline = time.Now().Add(15 * time.Second)
	for {
		ok := true
		for i := 0; i < 2; i++ {
			if nodeGauge(reg, "core_alive_count", i) != 2 || nodeCounter(reg, "core_view_changes_total", i) == 0 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < 2; i++ {
				t.Logf("node %d alive=%d changes=%d", i,
					nodeGauge(reg, "core_alive_count", i), nodeCounter(reg, "core_view_changes_total", i))
			}
			t.Fatal("kill never surfaced as a view change on the survivors")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSamplerDisabledDeliverAllocFree is the flight-recorder counterpart
// of the lifecycle disabled-path guard: with metrics installed but no
// sampler attached, the deliver hot path — each delivery followed by the
// publish that ends every loop event — must cost exactly what it costs
// bare: the per-node instruments are pre-resolved atomics, and metrics
// install no hook on the process.
func TestSamplerDisabledDeliverAllocFree(t *testing.T) {
	bare := driveWaitCascade(t, core.Callbacks{})
	o := newNodeObs(obs.New(), 0, 3, 0)
	instrumented := waitCascadeAllocs(t, cascadeProc(t, core.Callbacks{}), func(p *core.Process) { o.publish(p, 0) })
	if extra := instrumented - bare; extra > 0.5 {
		t.Errorf("publish adds %.2f allocs/op to the deliver path, want 0", extra)
	}
}
