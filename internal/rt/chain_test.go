package rt

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// TestChainComposesEveryCallback is the live half of core's test of the same
// name, which walks every field core.Chain composes: on a live member with
// metrics and tracing both on, the host's Observe hooks for OnRoundEnd and
// OnCrashDeclared fire beside the metrics layer's own.
func TestChainComposesEveryCallback(t *testing.T) {
	t.Run("observe_beside_metrics_and_tracing", func(t *testing.T) {
		const victim = 2
		var rounds, declared atomic.Int64
		cfg := liveConfig(3)
		cfg.Metrics = obs.New()
		cfg.Lifecycle = &lifecycle.Options{SlowThreshold: 10 * time.Second}
		cfg.Observe = func(mid.ProcID, uint32) core.Callbacks {
			return core.Callbacks{
				OnRoundEnd: func(core.RoundObservation) { rounds.Add(1) },
				OnCrashDeclared: func(q mid.ProcID) {
					if q == victim {
						declared.Add(1)
					}
				},
			}
		}
		c := startCluster(t, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Node(victim).Kill()
		waitFor(t, ctx, 20*time.Second, "OnCrashDeclared never reached the Observe hook", func() bool {
			for i := mid.ProcID(0); i < victim; i++ {
				if _, err := c.Node(i).Send(ctx, []byte("drive"), nil); err != nil {
					t.Fatal(err)
				}
			}
			return declared.Load() > 0
		})
		if rounds.Load() == 0 {
			t.Error("OnRoundEnd never reached the Observe hook")
		}
	})
}
