package rt

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
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
// frames rather than 32 singleton broadcasts. The burst's goroutines start
// one by one, and on a busy host each could find the session quiet and leave
// alone; one more Send counts outstanding throughout, as one still returning
// from its Await does, so the burst meets in windows.
func TestCoalescedSendsConverge(t *testing.T) {
	reg := obs.New()
	cfg := liveConfig(3)
	cfg.RoundDuration = time.Millisecond
	// The window is deliberately huge next to the goroutine launch time:
	// the flush that matters is the count-budget one at DefaultBatchMax.
	cfg.BatchWindow = 100 * time.Millisecond
	cfg.Metrics = reg
	c := startCluster(t, cfg)
	coal := c.Node(0).m.sessions[0].coal
	coal.outstanding.Add(1)
	defer coal.settle()

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
	// No loop drains the inbox: a window that flushed would sit in it. A
	// Send already in flight, its lone window posted at once, keeps the
	// session from looking quiet, so the window below stays open.
	in := newInbox(8, make(chan struct{}))
	c := newCoalescer(time.Hour, 16, 1<<20, in, nil, nil)
	c.Add(&submission{Payload: []byte("in flight"), done: make(chan struct{}, 1)})
	<-in.c
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

// backlogged tunes cfg so that a member's protocol keeps a message queued
// for the rest of a test once strand has put one there — and with it the
// member's coalescer window open past any loop event, since the loop closes a
// window early only while nothing is queued. The subrun budget is one
// message; no subrun opens after the clock's first within the hour — rounds
// are an hour long, and the last member's datagrams are cut, so no subrun can
// be decided early on its report — and the window's timer never fires.
func backlogged(cfg *Config) {
	last := mid.ProcID(cfg.N - 1)
	cfg.BatchMax = 1
	cfg.RoundDuration = time.Hour
	cfg.BatchWindow = time.Hour
	cfg.Fault = faultrt.NewHook(faultrt.Cut(func(_ uint32, src, _ mid.ProcID) bool { return src == last }), nil)
}

// strand parks a Send of member m on group g in an open coalescer window, on
// a member built with backlogged (and metrics): BatchMax messages spend the
// subrun's budget and confirm, one more stays queued in the protocol's
// outbox, and a small one then waits in a window that no loop event closes.
// Those before it fill a window alone, by bytes, so they reach the protocol
// without the loop's help. The two Sends left waiting report on the returned
// channel.
func strand(t *testing.T, m *Member, g uint32) <-chan error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if m.mesh != nil {
		// A mesh opens round 0 at Start, and with it a fresh budget: spend
		// that one. A socket member's first tick is an hour away.
		rounds := m.cfg.Metrics.Counter("rt_rounds_total")
		waitFor(t, ctx, 10*time.Second, "the mesh never opened round 0", func() bool { return rounds.Value() > 0 })
	}
	big := make([]byte, core.DefaultBatchBytes)
	for range m.cfg.BatchMax {
		if _, err := m.Send(ctx, g, big, nil); err != nil {
			t.Fatalf("group %d: a message spending the budget: %v", g, err)
		}
	}
	out := make(chan error, 2)
	send := func(payload []byte) {
		go func() {
			_, err := m.Send(context.Background(), g, payload, nil)
			out <- err
		}()
	}
	send(big)
	waitFor(t, ctx, 10*time.Second, "the message past the budget never queued", func() bool {
		var pending int
		err := m.Snapshot(ctx, g, func(p *core.Process) { pending = p.PendingSubmissions() })
		return err == nil && pending == 1
	})
	send([]byte("stranded"))
	// Stop must race a queued waiter, not an unstarted goroutine.
	waitFor(t, ctx, 10*time.Second, "the stranded submission never entered the coalescer window", func() bool {
		return m.sessions[g].coal.Pending() == 1
	})
	return out
}

// TestClusterStopUnblocksWindowedSends drives the same edge end to end: a
// Send sitting inside an open window when Cluster.Stop runs must return an
// error instead of hanging on its confirm channel. The window is held open
// behind a queued message (strand), and the message queued behind the spent
// budget is failed by the same Stop.
func TestClusterStopUnblocksWindowedSends(t *testing.T) {
	cfg := liveConfig(2)
	cfg.Metrics = obs.New()
	backlogged(&cfg)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	done := strand(t, c.Node(0).m, 0)
	c.Stop()
	for range 2 {
		select {
		case err := <-done:
			if err == nil {
				t.Error("Send stranded in a stopped coalescer returned nil error")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Send leaked: still blocked after Cluster.Stop")
		}
	}
}

// TestWindowClosesWhenLoopDrains pins the early close of a coalescer window:
// right after the shard loop has run an event for the session while the
// protocol has nothing queued. The window is an hour, so below the count and
// byte budgets only that rule can close it.
func TestWindowClosesWhenLoopDrains(t *testing.T) {
	t.Run("loop_running_events", func(t *testing.T) {
		// The clock keeps the loops running events, and an idle group has
		// nothing queued: each lone Send leaves at the next event and
		// confirms within a few rounds, not after the hour.
		const sends, fewRounds = 10, 5
		reg := obs.New()
		cfg := liveConfig(3)
		cfg.RoundDuration = 10 * time.Millisecond
		cfg.BatchWindow = time.Hour
		cfg.Metrics = reg
		c := startCluster(t, cfg)
		rounds := reg.Counter("rt_rounds_total")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i := range sends {
			r0 := rounds.Value()
			if _, err := c.Node(0).Send(ctx, []byte("lone"), nil); err != nil {
				t.Fatalf("send %d: %v: its window waited for the timer", i, err)
			}
			if took := rounds.Value() - r0; took > fewRounds {
				t.Errorf("send %d confirmed %d rounds after it was made, want at most %d", i, took, fewRounds)
			}
		}
	})

	t.Run("quiet_member", func(t *testing.T) {
		// A lone Send per group finds its session quiet — no other Send
		// outstanding — and Add posts its window at once: it confirms within
		// a few milliseconds, not after the hour.
		const groups = 4
		m := quietMesh(t, groups, time.Hour)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for g := range uint32(groups) {
			t0 := time.Now()
			if _, err := m.Send(ctx, g, []byte("lone"), nil); err != nil {
				t.Fatalf("group %d: %v: the lone Send waited for the loop or the timer", g, err)
			}
			if took := time.Since(t0); took > 100*time.Millisecond {
				t.Errorf("group %d: the lone Send confirmed after %v, want a few milliseconds", g, took)
			}
		}
	})

	t.Run("returning_pair", func(t *testing.T) {
		// A Send that joins while an earlier one is returning from Await —
		// its confirm signalled, its count not yet settled — does not find
		// the session quiet, and its window waits for the loop's next event
		// or the timer. The test plays the first Send, holding it between
		// its signal and its return; every second Send still confirms. On a
		// quiet member nothing else closes a window the loop's drain missed,
		// so the window here is short: an hour-long one would hold such a
		// Send the hour.
		const pairs, window = 300, 5 * time.Millisecond
		m := quietMesh(t, 1, window)
		s := m.sessions[0]
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		held, timed := 0, 0
		for i := range pairs {
			first := newSubmission([]byte("returning"), nil, false)
			s.coal.Add(first)
			for len(first.done) == 0 {
				runtime.Gosched()
			}
			second := make(chan error, 1)
			go func() {
				_, err := m.Send(ctx, 0, []byte("joins"), nil)
				second <- err
			}()
			for s.coal.outstanding.Load() < 2 && len(second) == 0 { // joined, or already confirmed
				runtime.Gosched()
			}
			if _, err := s.conf.Await(ctx, s.shard.inbox, s.obs, first); err != nil {
				t.Fatalf("pair %d: first Send: %v", i, err)
			}
			returned := time.Now()
			if s.coal.Pending() > 0 {
				held++
			}
			if err := <-second; err != nil {
				t.Fatalf("pair %d: the Send that joined a returning one: %v", i, err)
			}
			if time.Since(returned) >= window {
				timed++
			}
		}
		t.Logf("of %d second Sends, %d were still in their window when the first returned, and %d confirmed a window or more after it (the timer's close, or a loop event as late)",
			pairs, held, timed)
	})

	t.Run("closed_loop", func(t *testing.T) {
		// Closed-loop sessions on one member keep each other outstanding,
		// so a Send rarely finds its session quiet and windows carry several
		// Sends each (4 to 6 on a 2-core host). A window posted whenever the
		// loop's inbox is empty instead collapses to 1.2 here: most Sends
		// leave alone.
		const sessions, perSession = 8, 50
		reg := obs.New()
		cfg := liveConfig(3)
		cfg.RoundDuration = 2 * time.Millisecond
		cfg.BatchWindow = time.Millisecond
		cfg.BatchMax = 32
		cfg.Metrics = reg
		c := startCluster(t, cfg)
		flushes := reg.Histogram(obs.Labeled("rt_coalesce_flush_msgs", "node", "0", "group", "0"), obs.LengthBuckets)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		errs := make(chan error, sessions)
		for range sessions {
			go func() {
				for range perSession {
					if _, err := c.Node(0).Send(ctx, []byte("closed loop"), nil); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for range sessions {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		n, sum := flushes.Count(), flushes.Sum()
		t.Logf("%v Sends left the coalescer in %d windows (mean %.2f)", sum, n, sum/float64(n))
		if sum/float64(n) < 2 {
			t.Errorf("%d closed-loop sessions flushed %v Sends in %d windows, want a mean of at least 2", sessions, sum, n)
		}
	})

	t.Run("outbox_backlogged", func(t *testing.T) {
		// Behind a queued message the window stays open past every event
		// and closes full, by count: batching under load is unchanged.
		const budget, windows = 4, 3
		reg := obs.New()
		cfg := liveConfig(3)
		cfg.Metrics = reg
		backlogged(&cfg)
		cfg.BatchMax = budget
		c := startCluster(t, cfg)
		m := c.Node(0).m
		stranded := strand(t, m, 0) // its windowed Send is the first of the windows'
		flushes := reg.Histogram(obs.Labeled("rt_coalesce_flush_msgs", "node", "0", "group", "0"), obs.LengthBuckets)
		n0, sum0 := flushes.Count(), flushes.Sum()
		loaded := make(chan error, budget*windows-1)
		for range cap(loaded) {
			go func() {
				_, err := m.Send(context.Background(), 0, []byte("under load"), nil)
				loaded <- err
			}()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		waitFor(t, ctx, 10*time.Second, "the windows never reached the protocol", func() bool {
			var pending int
			err := m.Snapshot(ctx, 0, func(p *core.Process) { pending = p.PendingSubmissions() })
			return err == nil && pending == 1+budget*windows
		})
		if n, sum := flushes.Count()-n0, flushes.Sum()-sum0; n != windows || sum != budget*windows {
			t.Errorf("%v submissions left the coalescer in %d flushes, want %d full windows of %d", sum, n, windows, budget)
		}
		// Nothing queued leaves within the hour: Stop ends every Send.
		c.Stop()
		for range cap(loaded) {
			<-loaded
		}
		for range 2 {
			<-stranded
		}
	})
}

// quietMesh starts three members hosting groups groups with hour-long rounds
// and coalescer windows of window, and returns once member 0 has decided
// every group's first subrun and finished the deciding events: from then on
// no event reaches member 0 unless it sends.
func quietMesh(t *testing.T, groups int, window time.Duration) *Member {
	t.Helper()
	reg := obs.New()
	mesh, err := NewMesh(Config{
		Config:        core.Config{N: 3, K: 3, R: 8, SelfExclusion: true},
		Groups:        groups,
		Shards:        min(groups, 2),
		RoundDuration: time.Hour,
		BatchWindow:   window,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mesh.Start()
	t.Cleanup(mesh.Stop)
	m := mesh.Node(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for g := range groups {
		decisions := reg.Counter(obs.Labeled("rt_decisions_total", "node", "0", "group", fmt.Sprint(g)))
		waitFor(t, ctx, 10*time.Second, "a group never decided its first subrun", func() bool { return decisions.Value() > 0 })
		if err := m.Snapshot(ctx, uint32(g), func(*core.Process) {}); err != nil {
			t.Fatal(err)
		}
	}
	return m
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
	for reg.Counter("topics_send_oversize_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("topics_send_oversize_total never incremented for a >64KiB frame")
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
	if reg.Counter("topics_send_oversize_total").Value() != 0 {
		t.Error("batched traffic tripped the oversize guard; the batcher must split to the datagram budget")
	}
}
