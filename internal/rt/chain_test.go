package rt

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// TestChainComposesEveryCallback is the live half of core's test of the same
// name, which walks every field core.Chain composes: on a live member with
// metrics and tracing both on, the host's Observe hooks for OnProcess,
// OnDecision and OnStable fire beside the runtime's own (confirm and
// indication) and the tracer's, and the metrics publish reads the same
// process.
func TestChainComposesEveryCallback(t *testing.T) {
	t.Run("observe_beside_metrics_and_tracing", func(t *testing.T) {
		const n, sends = 3, 3
		var processed, decisions, stables atomic.Int64
		reg := obs.New()
		cfg := liveConfig(n)
		cfg.Metrics = reg
		cfg.Lifecycle = &lifecycle.Options{SlowThreshold: 10 * time.Second}
		cfg.Observe = func(node mid.ProcID, _ uint32) core.Callbacks {
			if node != 0 {
				return core.Callbacks{}
			}
			return core.Callbacks{
				OnProcess:  func(*causal.Message) { processed.Add(1) },
				OnDecision: func(*wire.Decision) { decisions.Add(1) },
				OnStable:   func(mid.SeqVector) { stables.Add(1) },
			}
		}
		c := startCluster(t, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i := 0; i < sends; i++ {
			if _, err := c.Node(0).Send(ctx, []byte("drive"), nil); err != nil {
				t.Fatal(err) // the runtime's own OnProcess confirmed it
			}
		}
		waitFor(t, ctx, 20*time.Second, "the Observe hooks never all fired", func() bool {
			return processed.Load() >= sends && decisions.Load() > 0 && stables.Load() > 0
		})
		if got := nodeCounter(reg, "rt_processed_total", 0); got < sends {
			t.Errorf("rt_processed_total = %d, want ≥ %d", got, sends)
		}
		if nodeCounter(reg, "rt_decisions_total", 0) == 0 {
			t.Error("rt_decisions_total never moved")
		}
		if got := c.Node(0).Lifecycle().Counts().Completed; got < sends {
			t.Errorf("tracer's OnProcess: %d spans completed, want ≥ %d", got, sends)
		}
	})
}
