package benchsuite

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/topics"
)

// ---- Group scaling: aggregate msgs/s x groups x shards ----

// benchGroupScaling saturates a multi-group mesh cluster and reports the
// aggregate confirmed rate across every group. A group's eight closed-loop
// workers never fill its 64-message subrun budget, so every coalescer
// window leaves on submit and no confirm waits for a tick: each group's
// throughput is bound by its closed loop's latency (the window, the loop
// hand-offs), not by the round clock and not by the cores. Hosting G
// independent groups over S shard loops therefore multiplies the aggregate
// even on two cores — the sharded runtime's whole point. Workers spread
// across groups and members; the iteration budget is shared, so msgs/s is
// the true aggregate.
func benchGroupScaling(b *testing.B, groups, shards int) {
	const n = 3
	c, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: n, K: 3, R: 8, BatchMax: 64, SelfExclusion: true},
		Groups:        groups,
		Shards:        shards,
		RoundDuration: 500 * time.Microsecond,
		BatchWindow:   200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	payload := make([]byte, 64)
	// Enough in-flight senders per group to fill its subrun drains without
	// flooding the shared shards when G is large.
	const workersPerGroup = 8
	workers := workersPerGroup * groups
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		g := uint32(w % groups)
		node := c.Node(mid.ProcID(w % n))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				if _, err := node.Send(ctx, g, payload, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(groups), "groups")
	b.ReportMetric(float64(shards), "shards")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// GroupScalingG1S1 is the single-group control every scaling point is
// measured against.
func GroupScalingG1S1(b *testing.B) { benchGroupScaling(b, 1, 1) }

// GroupScalingG2S2 doubles the groups and the shards.
func GroupScalingG2S2(b *testing.B) { benchGroupScaling(b, 2, 2) }

// GroupScalingG4S4 is the mid scaling point.
func GroupScalingG4S4(b *testing.B) { benchGroupScaling(b, 4, 4) }

// GroupScalingG8S8 is the acceptance shape: aggregate msgs/s must be at
// least 3x the G1S1 control.
func GroupScalingG8S8(b *testing.B) { benchGroupScaling(b, 8, 8) }

// GroupScalingG8S1 squeezes eight groups through one shard loop — the
// contrast that isolates what sharding (vs mere multiplexing) buys.
func GroupScalingG8S1(b *testing.B) { benchGroupScaling(b, 8, 1) }
