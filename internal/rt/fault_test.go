package rt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// TestMeshFaultHookCrashAndConverge runs the in-process mesh with a fault
// hook at its transport boundary: a scheduled crash plus send omissions,
// delays and duplicates. The clock must fail-stop the scheduled process,
// the survivors must still converge, and the per-kind injection counters
// must be live on the registry.
func TestMeshFaultHookCrashAndConverge(t *testing.T) {
	reg := obs.New()
	hook := faultrt.NewHook(faultrt.Multi{
		faultrt.CrashAt{Proc: 2, At: 30 * time.Millisecond},
		&faultrt.DropEvery{N: 40, Side: faultrt.AtSend},
		faultrt.NewDelayEvery(25, time.Millisecond, time.Millisecond, faultrt.AtRecv, 5),
		&faultrt.DupEvery{N: 30, Copies: 1, Side: faultrt.AtSend},
	}, reg)
	cfg := liveConfig(4)
	cfg.Metrics = reg
	cfg.Fault = hook
	c := startCluster(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const perNode = 6
	want := make(mid.SeqVector, 4)
	for k := 0; k < perNode; k++ {
		for i := 0; i < 3; i++ { // node 3... node 2 crashes mid-run; load the others
			if i == 2 {
				continue
			}
			if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte(fmt.Sprintf("m%d-%d", i, k)), nil); err != nil {
				t.Fatalf("node %d send %d: %v", i, k, err)
			}
			want[i]++
		}
	}
	waitConverged(t, c, want, 20*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for !c.Node(2).Killed() {
		if time.Now().After(deadline) {
			t.Fatal("scheduled crash of node 2 never fail-stopped it")
		}
		time.Sleep(2 * time.Millisecond)
	}
	inj := hook.Injected()
	for _, kind := range []string{"crash", "drop", "delay", "duplicate"} {
		if inj[kind] == 0 {
			t.Errorf("no %s fault was ever injected: %v", kind, inj)
		}
		if reg.Snapshot()[obs.Labeled("faultrt_injected_total", "kind", kind)] == 0 {
			t.Errorf("faultrt_injected_total{kind=%q} not exported", kind)
		}
	}
}

// TestKilledMemberExcludedOnTheClock: arrivals pace agreement, the clock
// paces fault detection. A member killed after a burst that ran on early
// subruns is excluded K clock subruns later — no sooner for the early
// subruns, no later — and once the survivors' view has dropped it they are
// in step again: early subruns resume.
func TestKilledMemberExcludedOnTheClock(t *testing.T) {
	const k = 3
	reg := obs.New()
	c := startCluster(t, Config{
		Config:        core.Config{N: 3, K: k, R: 8, SelfExclusion: true},
		RoundDuration: 20 * time.Millisecond,
		Metrics:       reg,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	burst := func(senders int) {
		for j := 0; j < 5; j++ {
			for i := 0; i < senders; i++ {
				if _, err := c.Node(mid.ProcID(i)).Send(ctx, []byte(fmt.Sprintf("b%d-%d", i, j)), nil); err != nil {
					t.Fatalf("node %d send %d: %v", i, j, err)
				}
			}
		}
	}
	status := func(i mid.ProcID) Status {
		st, err := c.Node(i).Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	burst(3)
	for nodeCounter(reg, "rt_early_subruns_total", 0) == 0 {
		if ctx.Err() != nil {
			t.Fatal("the burst ran on the clock alone: no early subrun opened")
		}
		time.Sleep(time.Millisecond)
	}

	killedAt := status(0).Subrun
	c.Node(2).Kill()
	var excludedAt int64
	for {
		st := status(0)
		if !st.Alive[2] {
			excludedAt = st.Subrun
			break
		}
		if ctx.Err() != nil {
			t.Fatal("the killed member was never excluded")
		}
		time.Sleep(time.Millisecond)
	}
	if took := excludedAt - killedAt; took < k-1 || took > k+2 {
		t.Errorf("excluded %d clock subruns after the kill, want K = %d (K-1 to K+2: the kill and the poll each land mid-subrun)", took, k)
	}

	early := nodeCounter(reg, "rt_early_subruns_total", 0)
	burst(2)
	waitConverged(t, c, mid.SeqVector{10, 10, 5}, 10*time.Second)
	if nodeCounter(reg, "rt_early_subruns_total", 0) == early {
		t.Error("the survivors never opened an early subrun after the exclusion")
	}
}

// TestSendAbandonedDoesNotLeakWaiter is the regression test for the
// waiter-map leak: a Send abandoned on context timeout while its message
// is still unprocessed must remove its confirm entry. The later submissions
// are held in the outbox by construction, not by timing: with a history
// threshold of one, the first Send (which leaves at once — send on submit)
// closes the flow-control valve, and it cannot reopen before a full-group
// decision has made that message stable. With member 2 killed there is none:
// no early subrun gathers every report, and the clock's decisions do not
// cover the silent member until K two-second rounds have excluded it.
func TestSendAbandonedDoesNotLeakWaiter(t *testing.T) {
	cfg := Config{
		Config:        core.Config{N: 3, K: 3, R: 8, HistoryThreshold: 1},
		RoundDuration: 2 * time.Second,
	}
	c := startCluster(t, cfg)
	c.Node(2).Kill()

	n := c.Node(1)
	if _, err := n.Send(context.Background(), []byte("closes the valve"), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	const sends = 3
	var (
		wg   sync.WaitGroup
		ids  [sends]mid.MID
		errs [sends]error
	)
	for j := 0; j < sends; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[j], errs[j] = n.Send(ctx, []byte("stuck"), nil)
		}()
	}
	wg.Wait()
	for j := 0; j < sends; j++ {
		if errs[j] == nil || ids[j] == (mid.MID{}) {
			t.Fatalf("send %d was not abandoned mid-flight (ids %v, errs %v): the leak path was not exercised",
				j, ids, errs)
		}
	}
	if leaked := n.m.sessions[0].conf.Waiting(); leaked != 0 {
		t.Errorf("%d waiter entries leaked after abandoned sends", leaked)
	}
}

// TestUDPSendAbandonedDoesNotLeakWaiterOrGoroutines is the same regression
// for the UDP runtime, plus a shutdown goroutine-leak check: a member
// whose peer never answers abandons its send on timeout, must leave no
// waiter entry behind, and Stop must wind down every goroutine. The valve
// holds the second send as above; with the only peer silent, nothing is
// ever stable before K subruns have declared it crashed.
func TestUDPSendAbandonedDoesNotLeakWaiterOrGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	before := runtime.NumGoroutine()
	peers := freePorts(t, 2)
	node, err := NewUDPNode(UDPConfig{
		Config:        core.Config{N: 2, K: 3, R: 8, HistoryThreshold: 1},
		Self:          1, // peer 0 is never started
		Peers:         peers,
		RoundDuration: 200 * time.Millisecond,
		Logf:          func(string, ...any) {}, // the dead peer's ICMP errors
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()

	if _, err := node.Send(context.Background(), []byte("closes the valve"), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	id, err := node.Send(ctx, []byte("stuck"), nil)
	if err == nil {
		t.Fatal("send confirmed through a closed flow-control valve")
	}
	if id == (mid.MID{}) {
		t.Fatalf("send failed before registering its waiter (err %v): the leak path was not exercised", err)
	}
	if leaked := node.m.sessions[0].conf.Waiting(); leaked != 0 {
		t.Errorf("%d waiter entries leaked after abandoned send", leaked)
	}

	node.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Stop: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUDPGroupConvergesUnderFaults reruns the UDP convergence test with a
// fault hook on every member's socket boundary injecting omissions and
// duplicates; the protocol must recover everything.
func TestUDPGroupConvergesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n, perNode = 3, 4
	nodes := udpNodes(t, n, UDPConfig{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: 3 * time.Millisecond,
		// One hook for the whole group: it serializes the members' consultations.
		Fault: faultrt.NewHook(faultrt.Multi{
			&faultrt.DropEvery{N: 25, Side: faultrt.AtSend},
			&faultrt.DropEvery{N: 25, Side: faultrt.AtRecv},
			&faultrt.DupEvery{N: 20, Copies: 1, Side: faultrt.AtSend},
		}, nil),
	})
	sendEach(t, nodes, perNode)
	awaitProcessed(t, nodes, mid.SeqVector{perNode, perNode, perNode})
}
