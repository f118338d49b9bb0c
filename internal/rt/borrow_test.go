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
	for _, node := range c.nodes {
		node.m.shards[0].free.Poison = true
	}
	c.Start()
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, node := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				if _, err := node.SendCausal(ctx, []byte(fmt.Sprintf("b%d-%d", i, k))); err != nil {
					t.Errorf("sender %d, message %d: %v", i, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
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
		// K and R are generous: the members' clocks run free, and on a loaded
		// host a member descheduled for a few rounds must not be taken for
		// crashed — that is not what this test is about.
		nodes := udpNodes(t, 3, UDPConfig{
			Config:        core.Config{N: 3, K: 5, R: 16, SelfExclusion: true},
			RoundDuration: round,
			Logf:          t.Logf,
		})
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

// TestMallocsPerConfirmedMessage is the end-to-end allocation budget of the
// live data path, held by tier-1 rather than only by the benchmark: a
// three-member in-process mesh publishing urcgc-node's vocabulary, every frame
// through the wire codec and the datagram validator — the runtime's whole
// per-message cost with the harness's share reduced to nothing (background
// contexts, one shared payload, indication consumers that allocate nothing).
// Three shapes: full 32-message batches from a closed loop of 96 sessions; the
// singleton Data frames that one session per member sends on submit, as
// lan_light does; and eight batched groups sharing one shard loop per member,
// so a subrun's work is spread over many small groups' frames, as on
// lan_groups4 but with every group behind the same loop.
//
// What a message may allocate is what the group retains of it — the record
// at the sender and at each receiver, labels and payload — and all of it is
// carved from the chunks of an arena (DESIGN.md §7 rule 6); an idle subrun
// allocates nothing (TestIdleSubrunLiveAllocBudget). The parent of the arena
// measured 1.2 (batched) and 5.0 (singleton: the record at the sender, Data
// record and slab at both receivers) here. The ceiling leaves room for
// batches a loaded host leaves half full, not for a regression: a
// per-message record, closure, rendezvous, clone or payload copy adds 1 to 3
// each. Under the race detector, which drops a share of what sync.Pool is
// given, the run still holds the path to its pre-arena ceiling of 4.
func TestMallocsPerConfirmedMessage(t *testing.T) {
	const n = 3
	ceiling := 1.0
	if raceDetector {
		ceiling = 4
	}
	for _, c := range []struct {
		name                      string
		groups, sessions, perSess int
		batch                     bool
	}{
		{"batched_B32", 1, 96, 64, true}, // 32 per member: every subrun drains a full batch
		{"singleton", 1, n, 150, false},
		{"groups8_shard1", 8, 48, 64, true}, // two sessions per (member, group)
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := liveConfig(n)
			cfg.Groups, cfg.Shards = c.groups, 1
			if c.batch {
				cfg.BatchMax, cfg.BatchWindow = 32, 100*time.Microsecond
			}
			mesh, err := NewMesh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mesh.Start()
			defer mesh.Stop()
			for i := 0; i < n; i++ {
				for g := uint32(0); g < uint32(c.groups); g++ {
					ind, err := mesh.Node(mid.ProcID(i)).Indications(g)
					if err != nil {
						t.Fatal(err)
					}
					go func() {
						for range ind {
						}
					}()
				}
			}
			payload := make([]byte, 64)
			leg := func(count int) {
				var wg sync.WaitGroup
				for s := 0; s < c.sessions; s++ {
					// n and the group counts are coprime: every (member, group)
					// pair gets sessions/(n·groups) of them.
					node, g := mesh.Node(mid.ProcID(s%n)), uint32(s%c.groups)
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < count; i++ {
							if _, err := node.Send(context.Background(), g, payload, nil); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			leg(c.perSess / 8) // warm the pools, the histories' backing arrays, the goroutine stacks
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			leg(c.perSess)
			runtime.ReadMemStats(&after)
			if t.Failed() {
				return
			}
			msgs := c.sessions * c.perSess
			perMsg := float64(after.Mallocs-before.Mallocs) / float64(msgs)
			t.Logf("%.2f mallocs per confirmed message over %d messages", perMsg, msgs)
			if perMsg > ceiling {
				t.Errorf("live data path allocates %.2f objects per confirmed message, ceiling %.1f", perMsg, ceiling)
			}
		})
	}
}

// TestSendAllocBudget is the Send path's own budget: on a single-member
// group — no receivers to decode anything — a confirmed Send allocates a
// share of a chunk of the process's arena for the message record the history
// retains, and nothing else. The rendezvous is pooled, the frame buffer
// recycled, and the inbox event comes from the shard's free list: taken from a
// sync.Pool it missed every time (the loop's Put parks the record on another
// P), which this budget would read as 2. Before the arena the record alone
// was 1 object per Send.
func TestSendAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on the measured path")
	}
	cfg := liveConfig(1)
	cfg.RoundDuration = 100 * time.Microsecond
	c := startCluster(t, cfg)
	n, payload := c.Node(0), make([]byte, 16)
	go func() {
		for range n.Indications() {
		}
	}()
	send := func() {
		if _, err := n.Send(context.Background(), payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		send() // warm the pools and the history's backing array
	}
	if got := testing.AllocsPerRun(300, send); got > 0.5 {
		t.Errorf("a confirmed Send on an idle member allocates %.2f objects, budget 0.5", got)
	} else {
		t.Logf("%.2f allocs per confirmed Send", got)
	}
}
