package rt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// The tests below hold the runtimes to the borrow rule (DESIGN.md §7 rule 5)
// from the outside: every loop's free list poisons the control records it
// takes back, so a record still read after its Recv returned — by the
// protocol, or by a reader goroutine decoding into it while the loop is not
// done — shows up as a malformed PDU, a lost member, a diverged group, or,
// under `make race`, as the data race it is.

// sendAll has every listed sender confirm perNode messages, concurrently.
func sendAll(t *testing.T, perNode int, senders ...func(context.Context, []byte) error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, send := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				if err := send(ctx, []byte(fmt.Sprintf("b%d-%d", i, k))); err != nil {
					t.Errorf("sender %d, message %d: %v", i, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMeshSoakLosesNoMember soaks a five-member lockstep mesh with poisoned
// free lists and counts Left(). The lockstep clock queues round r's ticks
// member by member, so a member that ticks at once reaches the subrun's
// coordinator before that has its own tick: its REQUEST names the next
// subrun. Dropped, as it used to be, it counted the sender silent, and K such
// subruns in a row — routine on a slow or busy host, under the race detector
// above all — made a healthy member commit suicide with no fault injected.
func TestMeshSoakLosesNoMember(t *testing.T) {
	const n, perNode = 5, 150
	cfg := liveConfig(n)
	cfg.RoundDuration = 200 * time.Microsecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var senders []func(context.Context, []byte) error
	for _, node := range c.nodes {
		node.inbox.Free.Poison = true
		senders = append(senders, func(ctx context.Context, b []byte) error {
			_, err := node.SendCausal(ctx, b)
			return err
		})
	}
	c.Start()
	defer c.Stop()
	sendAll(t, perNode, senders...)
	if t.Failed() {
		return
	}
	waitConverged(t, c, mid.SeqVector{perNode, perNode, perNode, perNode, perNode}, 20*time.Second)
	for i, node := range c.nodes {
		if reason, left := node.Left(); left {
			t.Errorf("member %d left a fault-free group: %v", i, reason)
		}
		st, err := node.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Stats.Malformed != 0 {
			t.Errorf("member %d dropped %d malformed PDUs", i, st.Stats.Malformed)
		}
		for q, alive := range st.Alive {
			if !alive {
				t.Errorf("member %d believes healthy member %d crashed", i, q)
			}
		}
	}
}

// udpGroup starts n UDPNodes on loopback with poisoned free lists. K and R are
// generous: the members' clocks run free, and on a loaded host (the race
// detector, the other packages' tests) a member descheduled for a few rounds
// must not be taken for crashed — that is not what these tests are about.
func udpGroup(t *testing.T, n int, round time.Duration) []*UDPNode {
	t.Helper()
	peers := freePorts(t, n)
	nodes := make([]*UDPNode, n)
	for i := range nodes {
		node, err := NewUDPNode(UDPConfig{
			Config:        core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
			Self:          mid.ProcID(i),
			Peers:         peers,
			RoundDuration: round,
			Logf:          t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.inbox.Free.Poison = true
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Stop()
		}
	})
	return nodes
}

// TestUDPRecycledRecordsArePoisoned: over real sockets the reader goroutine
// decodes into the records the loop goroutine hands back, so a record that
// went back too early is a write racing the protocol's read.
func TestUDPRecycledRecordsArePoisoned(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n, perNode = 3, 40
	nodes := udpGroup(t, n, 5*time.Millisecond)
	var senders []func(context.Context, []byte) error
	for _, node := range nodes {
		senders = append(senders, func(ctx context.Context, b []byte) error {
			_, err := node.Send(ctx, b, nil)
			return err
		})
	}
	sendAll(t, perNode, senders...)
	if t.Failed() {
		return
	}
	want := mid.SeqVector{perNode, perNode, perNode}
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < n; {
		st, err := nodes[i].Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, left := nodes[i].Left(); left || st.Stats.Malformed != 0 {
			t.Fatalf("member %d: left=%v, %d malformed PDUs", i, left, st.Stats.Malformed)
		}
		switch {
		case st.Processed.Equal(want):
			i++
		case time.Now().After(deadline):
			t.Fatalf("member %d stuck at %v, want %v", i, st.Processed, want)
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// idleSubrunMallocs measures the process's allocations per subrun of an idle
// group: it lets the group settle, then reads MemStats around a sleep of
// window, which must hold at least 200 subruns — sampling the subrun counter
// outside the measured stretch, so the sampling's own garbage is not counted.
func idleSubrunMallocs(t *testing.T, subrun func() int64, window time.Duration) float64 {
	t.Helper()
	time.Sleep(window / 5)
	var before, after runtime.MemStats
	from := subrun()
	runtime.ReadMemStats(&before)
	time.Sleep(window)
	runtime.ReadMemStats(&after)
	to := subrun()
	if to-from < 200 {
		t.Fatalf("%d subruns in %v: the group stalled (did the sampled member leave?)", to-from, window)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(to-from)
}

// TestIdleSubrunLiveAllocBudget is the agreement clock's allocation budget on
// the live runtimes, held by tier-1: a three-member group that sends nothing
// still exchanges three requests and a decision every subrun, and that costs
// no garbage any more — the PDUs are written in place, decoded into recycled
// records and applied by copy; events, wire buffers and SharedBufs were
// recycled already. Both runtimes measure 0.0 objects per subrun here; the
// parent of the change that introduced this test measured 26 on the mesh and
// 22 over loopback UDP. The ceiling leaves room for the pool misses of a busy
// host (and of the race detector, under which sync.Pool drops a quarter of
// what it is given), not for a Request or Decision built or decoded fresh
// again (2 to 3 objects each, 3 built and 4 decoded per subrun).
func TestIdleSubrunLiveAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const ceiling = 8.0

	t.Run("mesh", func(t *testing.T) {
		cfg := liveConfig(3)
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		defer c.Stop()
		got := idleSubrunMallocs(t, func() int64 {
			var s int64
			if err := c.Node(0).Snapshot(context.Background(), func(p *core.Process) { s = p.Subrun() }); err != nil {
				t.Fatal(err)
			}
			return s
		}, time.Second) // the lockstep clock sleeps a round at a time: some 400 subruns
		t.Logf("%.2f mallocs per idle subrun of a 3-member rt.Cluster", got)
		if got > ceiling {
			t.Errorf("an idle subrun of the mesh group allocates %.2f objects, ceiling %.0f", got, ceiling)
		}
	})

	t.Run("udp", func(t *testing.T) {
		const round = 4 * time.Millisecond
		nodes := udpGroup(t, 3, round)
		got := idleSubrunMallocs(t, func() int64 {
			var s int64
			if err := nodes[0].Snapshot(context.Background(), func(p *core.Process) { s = p.Subrun() }); err != nil {
				t.Fatal(err)
			}
			return s
		}, 250*2*round)
		t.Logf("%.2f mallocs per idle subrun of a 3-member loopback UDPNode group", got)
		if got > ceiling {
			t.Errorf("an idle subrun of the UDP group allocates %.2f objects, ceiling %.0f", got, ceiling)
		}
		for i, node := range nodes {
			if reason, left := node.Left(); left {
				t.Errorf("member %d left the idle group: %v", i, reason)
			}
		}
	})
}
