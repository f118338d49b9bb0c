package rt

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// sumMetric adds up a (possibly node-labeled) counter family from a
// registry snapshot.
func sumMetric(reg *obs.Registry, prefix string) int64 {
	var total int64
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// TestCoalescedSendsConverge fires a burst of concurrent Sends through the
// coalescing sender: every send must confirm, every node must process every
// message, and the burst must actually leave as multi-message DataBatch
// frames rather than 32 singleton broadcasts.
func TestCoalescedSendsConverge(t *testing.T) {
	reg := obs.New()
	cfg := liveConfig(3)
	cfg.RoundDuration = time.Millisecond
	// The window is deliberately huge next to the goroutine launch time:
	// the flush that matters is the count-budget one at DefaultBatchMax.
	cfg.BatchWindow = 100 * time.Millisecond
	cfg.Metrics = reg
	c := startCluster(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const burst = core.DefaultBatchMax
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for k := 0; k < burst; k++ {
		wg.Add(1)
		k := k
		go func() {
			defer wg.Done()
			if _, err := c.Node(0).Send(ctx, []byte(fmt.Sprintf("burst-%d", k)), nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitConverged(t, c, mid.SeqVector{burst, 0, 0}, 15*time.Second)

	if frames := sumMetric(reg, "rt_batch_frames_total"); frames == 0 {
		t.Errorf("a %d-send burst through the coalescer broadcast no DataBatch frames", burst)
	}
	if msgs := sumMetric(reg, "rt_batch_msgs_total"); msgs == 0 {
		t.Errorf("rt_batch_msgs_total is zero after a coalesced burst")
	}
}

// TestCoalescedCausalSendPreservesDeps checks SendCausal through the
// coalescer: a message coalesced behind its dependency must still be
// delivered after it everywhere.
func TestCoalescedCausalSendPreservesDeps(t *testing.T) {
	cfg := liveConfig(3)
	cfg.RoundDuration = time.Millisecond
	cfg.BatchWindow = 5 * time.Millisecond
	c := startCluster(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for k := 0; k < 4; k++ {
		if _, err := c.Node(0).SendCausal(ctx, []byte(fmt.Sprintf("c-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c, mid.SeqVector{4, 0, 0}, 15*time.Second)
}

// TestCoalescerFlushesOnWindow pins the timer path: a lone submission —
// under every budget — must still flush once the window elapses.
func TestCoalescerFlushesOnWindow(t *testing.T) {
	cfg := liveConfig(2)
	cfg.RoundDuration = time.Millisecond
	cfg.BatchWindow = 2 * time.Millisecond
	c := startCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Node(0).Send(ctx, []byte("solo"), nil); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, mid.SeqVector{1, 0}, 10*time.Second)
}

// TestCoalescerStopFailsPendingWindow pins the shutdown edge: submissions
// queued inside an open batch window when Stop arrives must be answered —
// each waiter's done is signalled with ErrCoalescerStopped — never left
// blocked on a flush that will not happen.
func TestCoalescerStopFailsPendingWindow(t *testing.T) {
	// No loop drains the inbox: a window that flushed would sit in it.
	in := newInbox(8, make(chan struct{}))
	c := newCoalescer(time.Hour, 16, 1<<20, in, nil, nil)
	const pending = 5
	subs := make([]*submission, pending)
	for i := range subs {
		subs[i] = &submission{Payload: []byte("pending"), done: make(chan struct{}, 1)}
		c.Add(subs[i])
	}
	if flushed := len(in.c); flushed != 0 {
		t.Fatalf("window is an hour and budgets are slack, yet %d flushes ran early", flushed)
	}
	c.Stop()
	if flushed := len(in.c); flushed != 0 {
		t.Errorf("%d windows reached the loop after Stop", flushed)
	}
	for i, s := range subs {
		select {
		case <-s.done:
			if s.err != ErrCoalescerStopped {
				t.Errorf("submission %d: err = %v, want ErrCoalescerStopped", i, s.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("submission %d leaked: no signal after Stop", i)
		}
	}
	// Idempotent, and Adds after Stop fail immediately the same way.
	c.Stop()
	late := &submission{done: make(chan struct{}, 1)}
	c.Add(late)
	select {
	case <-late.done:
		if late.err != ErrCoalescerStopped {
			t.Errorf("post-Stop Add: err = %v, want ErrCoalescerStopped", late.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-Stop Add leaked: no signal")
	}
}

// TestClusterStopUnblocksWindowedSends drives the same edge end to end: a
// Send sitting inside an open window when Cluster.Stop runs must return an
// error instead of hanging on its confirm channel.
func TestClusterStopUnblocksWindowedSends(t *testing.T) {
	cfg := liveConfig(2)
	cfg.RoundDuration = time.Millisecond
	cfg.BatchWindow = time.Hour // never fires: only Stop can resolve the Send
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	done := make(chan error, 1)
	go func() {
		_, err := c.Node(0).Send(context.Background(), []byte("stranded"), nil)
		done <- err
	}()
	// Wait until the submission is actually inside the coalescer window, so
	// Stop races against a queued waiter rather than an unstarted goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.Node(0).m.sessions[0].coal.Pending() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submission never entered the coalescer window")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Send stranded in a stopped coalescer returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send leaked: still blocked after Cluster.Stop")
	}
}

// TestUDPOversizeSendCounted pins the transport-boundary bugfix: a frame
// the 64 KiB datagram cannot carry is counted and dropped at the sender
// instead of being handed to WriteToUDP to fail (or worse, truncate).
// A maximum-payload Data message plus framing exceeds the datagram budget,
// so it is processed locally but never reaches the peer.
func TestUDPOversizeSendCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	reg := obs.New()
	peers := freePorts(t, 2)
	node, err := NewUDPNode(UDPConfig{
		// K is high so the lone live node does not exclude its silent peer
		// (or itself) before the assertion runs.
		Config:        core.Config{N: 2, K: 100, R: 256, SelfExclusion: true},
		Self:          0,
		Peers:         peers,
		RoundDuration: 2 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	payload := make([]byte, 65535) // accepted by Submit; oversize once framed
	if _, err := node.Send(ctx, payload, nil); err != nil {
		t.Fatalf("oversize-on-wire send must still confirm locally: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("udp_send_oversize_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("udp_send_oversize_total never incremented for a >64KiB frame")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUDPBatchedGroupConverges drives a real-socket group with coalescing
// enabled: DataBatch frames cross actual UDP datagrams (and the
// sendmmsg/recvmmsg burst paths where the platform has them).
func TestUDPBatchedGroupConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n, perNode = 3, 8
	reg := obs.New()
	nodes := udpNodes(t, n, UDPConfig{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: 3 * time.Millisecond,
		BatchWindow:   2 * time.Millisecond,
		Metrics:       reg,
	})
	sendEach(t, nodes, perNode)
	awaitProcessed(t, nodes, mid.SeqVector{perNode, perNode, perNode})
	if reg.Counter("udp_send_oversize_total").Value() != 0 {
		t.Error("batched traffic tripped the oversize guard; the batcher must split to the datagram budget")
	}
}
