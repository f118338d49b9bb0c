package rt

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// TestRestartedNodeRejoins: kill a live member, let the survivors exclude
// it, then Restart it — the new incarnation must state-transfer, be
// re-admitted into every view, and accept Sends again on its old sequence.
func TestRestartedNodeRejoins(t *testing.T) {
	const victim = 3
	cfg := liveConfig(4)
	var installed, joined atomic.Bool
	cfg.Observe = func(node mid.ProcID, _ uint32) core.Callbacks {
		if node != victim {
			return core.Callbacks{}
		}
		return core.Callbacks{
			OnJoinInstalled: func(stable mid.SeqVector) {
				if len(stable) == 4 {
					installed.Store(true)
				}
			},
			OnJoined: func() { joined.Store(true) },
		}
	}
	c := startCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 4; i++ {
		if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte("warm"), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Node(victim).Kill()
	// Traffic drives the silence detection.
	waitFor(t, ctx, 20*time.Second, "survivors never excluded the victim", func() bool {
		for i := 0; i < 3; i++ {
			if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte("drive"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return !aliveAt(t, c, 0, victim)
	})

	if err := c.Restart(ctx, victim); err != nil {
		t.Fatal(err)
	}
	st, err := c.Node(victim).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Joining {
		t.Error("restarted member must report joining")
	}
	// Traffic keeps subruns decision-bearing while the joiner re-enters.
	waitFor(t, ctx, 30*time.Second, "restarted member never rejoined", func() bool {
		for i := 0; i < 3; i++ {
			if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte("drive"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return joined.Load()
	})
	if !installed.Load() {
		t.Error("OnJoinInstalled hook never fired")
	}

	// Every view re-admits it, and it generates again.
	waitFor(t, ctx, 20*time.Second, "views never re-admitted the member", func() bool {
		for i := 0; i < 4; i++ {
			if !aliveAt(t, c, mid.ProcID(i), victim) {
				return false
			}
		}
		return true
	})
	waitFor(t, ctx, 20*time.Second, "rejoined member never accepted a Send", func() bool {
		sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
		_, err := c.Node(victim).Send(sctx, []byte("back"), nil)
		scancel()
		return err == nil
	})
	st, err = c.Node(victim).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Joining || !st.Running {
		t.Errorf("post-rejoin status joining=%v running=%v", st.Joining, st.Running)
	}
}

// aliveAt samples whether member at's view believes q alive.
func aliveAt(t *testing.T, c *Cluster, at, q mid.ProcID) bool {
	t.Helper()
	var alive bool
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	err := c.Node(at).Snapshot(ctx, func(p *core.Process) { alive = p.View().Alive(q) })
	cancel()
	return err == nil && alive
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(t *testing.T, ctx context.Context, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}
