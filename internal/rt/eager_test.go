package rt

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// eagerRound is long enough that "confirmed without waiting for a tick"
// (microseconds) and "waited for one" (up to a 600 ms subrun) cannot be
// confused by scheduler noise.
const eagerRound = 300 * time.Millisecond

// sendWithin fails the test unless the send confirms well inside one round.
func sendWithin(t *testing.T, who string, send func(ctx context.Context) (mid.MID, error)) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := time.Now()
	if _, err := send(ctx); err != nil {
		t.Errorf("%s: %v", who, err) // not Fatal: callers run it off the test goroutine too
		return
	}
	if took := time.Since(t0); took > eagerRound/3 {
		t.Errorf("%s: an idle member's Send took %v at %v rounds: it waited for the tick", who, took, eagerRound)
	}
}

// TestMeshIdleSendSkipsTickWait: on the lockstep mesh every idle member's
// Send leaves on submit, and the fast path is counted per node.
func TestMeshIdleSendSkipsTickWait(t *testing.T) {
	reg := obs.New()
	c := startCluster(t, Config{
		Config:        core.Config{N: 3, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: eagerRound,
		Metrics:       reg,
	})
	for i := 0; i < c.N(); i++ {
		n := c.Node(mid.ProcID(i))
		sendWithin(t, "mesh node", func(ctx context.Context) (mid.MID, error) {
			return n.Send(ctx, []byte("idle"), nil)
		})
		// The loop counts the flush right after the step that confirmed the
		// Send: give it a moment.
		for deadline := time.Now().Add(time.Second); nodeCounter(reg, "rt_eager_broadcasts_total", i) == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := nodeCounter(reg, "rt_eager_broadcasts_total", i); got != 1 {
			t.Errorf("rt_eager_broadcasts_total{node=%d,group=0} = %d, want 1", i, got)
		}
	}
}

// TestUDPIdleSendSkipsTickWait is the same over real sockets with
// free-running clocks.
func TestUDPIdleSendSkipsTickWait(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	nodes := udpNodes(t, 3, UDPConfig{Config: core.Config{N: 3, K: 3, R: 8}, RoundDuration: eagerRound})
	for _, node := range nodes {
		sendWithin(t, "udp node", func(ctx context.Context) (mid.MID, error) {
			return node.Send(ctx, []byte("idle"), nil)
		})
	}
}

// TestCoalescedWindowLeavesEagerlyAsOneFrame: the post-submit flush runs
// once per coalescer flush, after the whole batch is queued, so a window's
// worth leaves at once as ONE DataBatch — not a Data for the first message
// and the rest at the tick. BatchMax closes the window on the fifth Send.
// The window fills on a loop that runs no event meanwhile: an event would
// close it early, the protocol having nothing queued, and a queued message
// would take a share of the budget the full window needs. So rounds are an
// hour long, and the Sends start once the first subrun is decided and the
// deciding event has finished — after which nothing reaches member 0. Nor
// may the session look quiet, or the burst's first Send would leave alone:
// one more Send counts outstanding throughout, as one still returning from
// its Await does.
func TestCoalescedWindowLeavesEagerlyAsOneFrame(t *testing.T) {
	reg := obs.New()
	const burst = 5
	c := startCluster(t, Config{
		Config:        core.Config{N: 3, K: 3, R: 8, SelfExclusion: true, BatchMax: burst},
		RoundDuration: time.Hour,
		BatchWindow:   time.Hour,
		Metrics:       reg,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	waitFor(t, ctx, 10*time.Second, "the group never decided its first subrun", func() bool {
		return nodeCounter(reg, "rt_decisions_total", 0) > 0
	})
	if err := c.Node(0).Snapshot(ctx, func(*core.Process) {}); err != nil {
		t.Fatal(err)
	}
	coal := c.Node(0).m.sessions[0].coal
	coal.outstanding.Add(1)
	defer coal.settle()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendWithin(t, "coalesced send", func(ctx context.Context) (mid.MID, error) {
				return c.Node(0).Send(ctx, []byte("windowed"), nil)
			})
		}()
	}
	wg.Wait()
	if frames, msgs := nodeCounter(reg, "rt_batch_frames_total", 0), nodeCounter(reg, "rt_batch_msgs_total", 0); frames != 1 || msgs != burst {
		t.Errorf("the window left as %d DataBatch frames carrying %d messages, want 1 carrying %d", frames, msgs, burst)
	}
	if got := nodeCounter(reg, "rt_eager_broadcasts_total", 0); got != 1 {
		t.Errorf("rt_eager_broadcasts_total{node=0,group=0} = %d, want 1", got)
	}
}

// TestSubrunBudgetSpentAcrossWindows: with BatchMax 8 a subrun carries up to
// eight of a member's messages however many submission events bring them —
// back-to-back Sends each leave on submit, from what the ones before left of
// the budget. In a group in step the 9th leaves in an early subrun, opened on
// the decision without waiting for the tick; in a group held out of step — a
// killed peer whose report every early subrun would need — it waits for the
// tick. rt_eager_broadcasts_total counts flushes, one per event here. The
// frame shape is pinned with and without a coalescer window: sequential Sends
// are one event each either way, so the budget leaves as eight
// single-message Data frames, not one DataBatch.
func TestSubrunBudgetSpentAcrossWindows(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{
		{"window 1ms", time.Millisecond}, // sequential Sends: one window each
		{"no window", 0},                 // every Send its own inbox event
	} {
		t.Run(tc.name, func(t *testing.T) { subrunBudgetAcrossEvents(t, tc.window) })
	}
}

func subrunBudgetAcrossEvents(t *testing.T, window time.Duration) {
	const budget = 8
	reg := obs.New()
	c := startCluster(t, Config{
		// K far above the test's length: the killed peer must hold the group
		// out of step, not be excluded from it.
		Config:        core.Config{N: 3, K: 100, R: 8, BatchMax: budget},
		RoundDuration: eagerRound,
		BatchWindow:   window,
		Metrics:       reg,
	})
	node := c.Node(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	state := func() (subrun int64, pending int) {
		if err := node.Snapshot(ctx, func(p *core.Process) { subrun, pending = p.Subrun(), p.PendingSubmissions() }); err != nil {
			t.Fatal(err)
		}
		return subrun, pending
	}
	send := func(ctx context.Context) (mid.MID, error) { return node.Send(ctx, []byte("windowed"), nil) }

	// In step: once the group's first subrun is decided, the budget's worth
	// and one more, none waiting for a tick.
	for nodeCounter(reg, "rt_decisions_total", 0) == 0 {
		if ctx.Err() != nil {
			t.Fatal("the group never decided its first subrun")
		}
		time.Sleep(time.Millisecond)
	}
	early0 := nodeCounter(reg, "rt_early_subruns_total", 0)
	for i := 1; i <= budget+1; i++ {
		sendWithin(t, fmt.Sprintf("send %d of a group in step", i), send)
	}
	// The last Send's confirm may beat the opening it caused to the counter.
	for deadline := time.Now().Add(eagerRound / 3); nodeCounter(reg, "rt_early_subruns_total", 0) == early0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a group in step opened no early subrun")
		}
	}

	// Out of step: start just after a subrun opens, so the eight Sends fit
	// well inside it; a run that still straddles a tick is retried.
	c.Node(2).Kill()
	for attempt := 0; attempt < 3; attempt++ {
		s0, _ := state()
		for s, _ := state(); s == s0; s, _ = state() {
			time.Sleep(time.Millisecond)
		}
		s0, _ = state()
		eager0 := nodeCounter(reg, "rt_eager_broadcasts_total", 0)
		eager := func() int64 { return nodeCounter(reg, "rt_eager_broadcasts_total", 0) - eager0 }
		batches0 := nodeCounter(reg, "rt_batch_frames_total", 0)
		for i := 1; i <= budget; i++ {
			sendWithin(t, fmt.Sprintf("send %d of the subrun", i), send)
		}
		// The loop counts a flush right after the step that confirmed its
		// Send: give the last one a moment.
		for deadline := time.Now().Add(time.Second); eager() != budget && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := eager(); got != budget {
			t.Fatalf("rt_eager_broadcasts_total moved by %d over %d Sends, want one per Send", got, budget)
		}
		if got := nodeCounter(reg, "rt_batch_frames_total", 0) - batches0; got != 0 {
			t.Fatalf("%d DataBatch frames over %d sequential Sends, want each alone in a Data frame", got, budget)
		}

		ninth := make(chan error, 1)
		go func() {
			_, err := send(ctx)
			ninth <- err
		}()
		var s int64
		var confirmed bool
		for pending := 0; pending == 0 && !confirmed; {
			select {
			case err := <-ninth:
				if err != nil {
					t.Fatal(err)
				}
				confirmed = true
			case <-time.After(time.Millisecond):
				s, pending = state()
			}
		}
		if confirmed {
			s, _ = state()
		}
		if s != s0 {
			if !confirmed {
				<-ninth
			}
			continue // a tick fell inside the run: the 9th was not the subrun's
		}
		if confirmed {
			t.Fatal("the subrun's 9th message confirmed without waiting for the tick")
		}
		if err := <-ninth; err != nil {
			t.Fatal(err)
		}
		if after, _ := state(); after == s0 {
			t.Fatalf("the subrun's 9th message confirmed in subrun %d, its own: it did not wait for the tick", after)
		}
		if got := eager(); got != budget {
			t.Fatalf("rt_eager_broadcasts_total moved by %d, want %d: the 9th was flushed past the budget", got, budget)
		}
		return
	}
	t.Fatal("every attempt straddled a subrun tick")
}

// TestEagerCounterDisabledAllocFree: with metrics off the step after every
// event that would publish the fast-path counter (and every other count and
// gauge) pays a nil check, nothing more.
func TestEagerCounterDisabledAllocFree(t *testing.T) {
	var o *nodeObs
	if allocs := testing.AllocsPerRun(1000, func() { o.publish(nil, 0) }); allocs != 0 {
		t.Fatalf("disabled eager counter: %v allocs/op, want 0", allocs)
	}
}

// TestScheduledCrashStopsSendOnSubmit: a member whose scheduled crash
// instant has passed must not send — or process its own message — on
// submit, even though the round tick that fail-stops it is still far away.
func TestScheduledCrashStopsSendOnSubmit(t *testing.T) {
	const crashAt = 20 * time.Millisecond
	hook := faultrt.NewHook(faultrt.CrashAt{Proc: 1, At: crashAt}, nil)
	c := startCluster(t, Config{
		Config:        core.Config{N: 3, K: 3, R: 8},
		RoundDuration: 10 * time.Second, // only tick 0 happens during the test
		Fault:         hook,
	})
	for hook.Elapsed() <= crashAt {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if id, err := c.Node(1).Send(ctx, []byte("posthumous"), nil); err == nil {
		t.Fatalf("a crashed member's Send confirmed as %v", id)
	}
	if !c.Node(1).Killed() {
		t.Error("the submit after the crash instant did not fail-stop the member")
	}
	select {
	case ind := <-c.Node(1).Indications():
		t.Errorf("a crashed member processed %v", ind.Msg.ID)
	default:
	}
}
