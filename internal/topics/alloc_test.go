package topics

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// TestMallocsPerConfirmedMessage is the end-to-end allocation budget of the
// live data path, held by tier-1 rather than only by the benchmark: a
// three-member in-process cluster, full 32-message batches, every frame
// through the wire codec and the demux — the runtime's whole per-message
// cost with the harness's share reduced to nothing (background contexts, one
// shared payload, indication consumers that allocate nothing).
//
// What a message may allocate is what the group retains of it: one record at
// the sender, and per receiver a share of the frame's header arena and slab.
// What a subrun allocates (requests, a decision, their decoded copies) is
// amortised over the batch. The parent of the change that introduced this
// test measured 20.7 here; the path now measures 1.7. The ceiling leaves room
// for batches a loaded host leaves half full (and for the race detector,
// under which sync.Pool drops a share of what it is given), not for a
// regression: a per-message closure, rendezvous, clone or payload copy adds 1
// to 3 each.
func TestMallocsPerConfirmedMessage(t *testing.T) {
	const (
		n        = 3
		sessions = 96 // closed loop, 32 per member: every subrun drains a full batch
		perSess  = 64 // 6144 confirmed messages in the measured leg
		ceiling  = 4.0
	)
	cfg := Config{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true, BatchMax: 32},
		Groups:        1,
		RoundDuration: 500 * time.Microsecond,
		BatchWindow:   100 * time.Microsecond,
	}
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for i := 0; i < n; i++ {
		ind, err := c.Node(mid.ProcID(i)).Indications(0)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range ind {
			}
		}()
	}

	payload := make([]byte, 64)
	leg := func(count int) {
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			node := c.Node(mid.ProcID(s % n))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < count; i++ {
					if _, err := node.Send(context.Background(), 0, payload, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	leg(8) // warm the pools, the histories' backing arrays, the goroutine stacks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	leg(perSess)
	runtime.ReadMemStats(&after)
	if t.Failed() {
		return
	}
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(sessions*perSess)
	t.Logf("%.2f mallocs per confirmed message over %d messages", perMsg, sessions*perSess)
	if perMsg > ceiling {
		t.Errorf("live data path allocates %.2f objects per confirmed message, ceiling %.1f", perMsg, ceiling)
	}
}
