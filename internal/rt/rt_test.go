package rt

import (
	"context"
	"fmt"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

func liveConfig(n int) Config {
	return Config{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: 500 * time.Microsecond,
	}
}

// startCluster builds and starts a live group, and stops it when the test ends.
func startCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// waitConverged polls until every live node's processed vector equals want,
// or the deadline passes.
func waitConverged(t *testing.T, c *Cluster, want mid.SeqVector, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for i := 0; i < c.N(); i++ {
			n := c.Node(mid.ProcID(i))
			if n.Killed() {
				continue
			}
			if _, left := n.Left(); left {
				continue
			}
			var got mid.SeqVector
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			err := n.Snapshot(ctx, func(p *core.Process) { got = p.Processed().Clone() })
			cancel()
			if err != nil || !got.Equal(want) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < c.N(); i++ {
		n := c.Node(mid.ProcID(i))
		var got mid.SeqVector
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = n.Snapshot(ctx, func(p *core.Process) { got = p.Processed().Clone() })
		cancel()
		t.Logf("node %d processed %v killed=%v", i, got, n.Killed())
	}
	t.Fatalf("group never converged to %v", want)
}

func TestLiveClusterConverges(t *testing.T) {
	c := startCluster(t, liveConfig(5))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const perProc = 6
	errs := make(chan error, 5)
	for i := 0; i < 5; i++ {
		i := i
		go func() {
			for k := 0; k < perProc; k++ {
				if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte(fmt.Sprintf("n%d-%d", i, k)), nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 5; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c, mid.SeqVector{perProc, perProc, perProc, perProc, perProc}, 15*time.Second)
}

func TestIndicationsAreCausallyOrdered(t *testing.T) {
	c := startCluster(t, liveConfig(3))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Node 0 sends a; node 1 waits to see a, then sends b depending on it.
	aID, err := c.Node(0).Send(ctx, []byte("a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawA bool
	for !sawA {
		select {
		case ind := <-c.Node(1).Indications():
			if ind.Msg.ID == aID {
				sawA = true
			}
		case <-ctx.Done():
			t.Fatal("node 1 never saw a")
		}
	}
	bID, err := c.Node(1).Send(ctx, []byte("b"), mid.DepList{aID})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 must observe a before b.
	posA, posB, pos := -1, -1, 0
	for posB < 0 {
		select {
		case ind := <-c.Node(2).Indications():
			switch ind.Msg.ID {
			case aID:
				posA = pos
			case bID:
				posB = pos
			}
			pos++
		case <-ctx.Done():
			t.Fatal("node 2 never saw b")
		}
	}
	if posA < 0 || posA > posB {
		t.Errorf("node 2 saw a at %d, b at %d", posA, posB)
	}
}

func TestSendRejectsBadDeps(t *testing.T) {
	c := startCluster(t, liveConfig(3))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Node(0).Send(ctx, []byte("x"), mid.DepList{{Proc: 1, Seq: 99}}); err == nil {
		t.Error("dep on unseen message must be rejected")
	}
}

func TestKilledNodeIsExcludedAndGroupContinues(t *testing.T) {
	c := startCluster(t, liveConfig(5))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Warm up with some traffic.
	for i := 0; i < 5; i++ {
		if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte("warm"), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Node(4).Kill()
	// Keep traffic flowing so detection progresses.
	for k := 0; k < 10; k++ {
		for i := 0; i < 4; i++ {
			if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte("post"), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Survivors must exclude node 4 from their views.
	deadline := time.Now().Add(15 * time.Second)
	for {
		allExcluded := true
		for i := 0; i < 4; i++ {
			var alive bool
			sctx, scancel := context.WithTimeout(ctx, time.Second)
			err := c.Node(mid.ProcID(i)).Snapshot(sctx, func(p *core.Process) { alive = p.View().Alive(4) })
			scancel()
			if err != nil || alive {
				allExcluded = false
				break
			}
		}
		if allExcluded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never excluded the killed node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And they can still make progress.
	if _, err := c.Node(0).Send(ctx, []byte("after"), nil); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, mid.SeqVector{12, 11, 11, 11, 1}, 15*time.Second)
}

func TestSendCausal(t *testing.T) {
	c := startCluster(t, liveConfig(3))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Node(0).Send(ctx, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, mid.SeqVector{1, 0, 0}, 10*time.Second)
	id, err := c.Node(1).SendCausal(ctx, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if id != (mid.MID{Proc: 1, Seq: 1}) {
		t.Errorf("id = %v", id)
	}
	waitConverged(t, c, mid.SeqVector{1, 1, 0}, 10*time.Second)
}

func TestStopUnblocksSenders(t *testing.T) {
	c, err := NewCluster(liveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Kill node 0 so its own Send can never confirm; Stop must unblock.
		c.Node(0).Kill()
		_, err := c.Node(0).Send(ctx, []byte("never"), nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Stop()
	select {
	case <-done:
		// Any outcome is fine as long as it returned.
	case <-time.After(5 * time.Second):
		t.Fatal("Send did not unblock on Stop")
	}
}
