package rt

import (
	"context"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

func TestConfigDefaultsFilled(t *testing.T) {
	cfg := Config{Config: core.Config{N: 2, K: 2, R: 5, SelfExclusion: true}}
	cfg.fill(true)
	if cfg.RoundDuration == 0 || cfg.InboxDepth == 0 || cfg.IndicationDepth == 0 {
		t.Errorf("defaults not filled: %+v", cfg)
	}
	// Explicit values survive.
	cfg2 := Config{
		Config:        core.Config{N: 2, K: 2, R: 5, SelfExclusion: true},
		RoundDuration: time.Second, InboxDepth: 7, IndicationDepth: 9,
	}
	cfg2.fill(true)
	if cfg2.RoundDuration != time.Second || cfg2.InboxDepth != 7 || cfg2.IndicationDepth != 9 {
		t.Errorf("explicit values overwritten: %+v", cfg2)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := NewCluster(Config{Config: core.Config{N: 0}}); err == nil {
		t.Error("invalid core config must be rejected")
	}
}

func TestKilledNodeRejectsSends(t *testing.T) {
	c := startCluster(t, liveConfig(2))
	c.Node(1).Kill()
	if !c.Node(1).Killed() {
		t.Fatal("Killed not reported")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Node(1).Send(ctx, []byte("x"), nil); err == nil {
		t.Error("send on a killed node must fail")
	}
	// SendCausal too.
	if _, err := c.Node(1).SendCausal(ctx, []byte("x")); err == nil {
		t.Error("SendCausal on a killed node must fail")
	}
}

func TestLeftReportsNothingInitially(t *testing.T) {
	c, err := NewCluster(liveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, left := c.Node(0).Left(); left {
		t.Error("fresh node should not have left")
	}
}

func TestSnapshotAfterStopFails(t *testing.T) {
	c, err := NewCluster(liveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err = c.Node(0).Snapshot(ctx, func(*core.Process) {})
	if err == nil {
		t.Error("snapshot after Stop should fail")
	}
}

func TestContextCancelUnblocksSend(t *testing.T) {
	c, err := NewCluster(liveConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Cluster never started: nothing ticks, so the Confirm never comes.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Node(0).Send(ctx, []byte("x"), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("send should fail on context expiry")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send never unblocked")
	}
	c.Start()
	c.Stop()
}

func TestIndicationOrderPerSequence(t *testing.T) {
	c := startCluster(t, liveConfig(3))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const k = 5
	for i := 0; i < k; i++ {
		if _, err := c.Node(0).Send(ctx, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 must observe node 0's sequence contiguously.
	var seen []mid.Seq
	for len(seen) < k {
		select {
		case ind := <-c.Node(1).Indications():
			if ind.Msg.ID.Proc == 0 {
				seen = append(seen, ind.Msg.ID.Seq)
			}
		case <-ctx.Done():
			t.Fatalf("starved after %v", seen)
		}
	}
	for i, s := range seen {
		if s != mid.Seq(i+1) {
			t.Fatalf("sequence broken: %v", seen)
		}
	}
}
