package topics

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs
}

func meshConfig(n, groups, shards int) Config {
	return Config{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		Groups:        groups,
		Shards:        shards,
		RoundDuration: 500 * time.Microsecond,
	}
}

// waitGroupConverged polls until every member's processed vector in every
// group equals want.
func waitGroupConverged(t *testing.T, nodes []*MultiNode, groups int, want mid.SeqVector, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
	check:
		for _, n := range nodes {
			for g := 0; g < groups; g++ {
				var got mid.SeqVector
				sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
				err := n.Snapshot(sctx, uint32(g), func(p *core.Process) { got = p.Processed().Clone() })
				scancel()
				if err != nil || !got.Equal(want) {
					ok = false
					break check
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("multi-group cluster never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendAll has every listed member confirm per messages on every group, all
// concurrently.
func sendAll(t *testing.T, nodes []*MultiNode, groups, per int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, node := range nodes {
		for g := uint32(0); g < uint32(groups); g++ {
			for k := 0; k < per; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := node.Send(ctx, g, []byte(fmt.Sprintf("m%d-%d-%d", i, g, k)), nil); err != nil {
						t.Errorf("node %d group %d send %d: %v", i, g, k, err)
					}
				}()
			}
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// members lists a cluster's nodes.
func members(c *MultiCluster) []*MultiNode {
	nodes := make([]*MultiNode, c.N())
	for i := range nodes {
		nodes[i] = c.Node(mid.ProcID(i))
	}
	return nodes
}

// TestMeshMultiGroupConverges drives several groups over the in-process
// mesh concurrently: every group must reach the same processed vector on
// every member, and groups must not bleed into each other.
func TestMeshMultiGroupConverges(t *testing.T) {
	const n, groups, shards, perGroup = 3, 4, 2, 6
	cfg := meshConfig(n, groups, shards)
	cfg.BatchWindow = 200 * time.Microsecond
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	nodes := members(c)
	sendAll(t, nodes[:1], groups, perGroup)
	waitGroupConverged(t, nodes, groups, mid.SeqVector{perGroup, 0, 0}, 20*time.Second)

	for i, n := range nodes {
		st, err := n.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Groups) != groups {
			t.Fatalf("node %d: %d groups in status, want %d", i, len(st.Groups), groups)
		}
		for g, gs := range st.Groups {
			if got := gs.Processed.Sum(); got != perGroup {
				t.Errorf("node %d group %d: processed %d, want %d", i, g, got, perGroup)
			}
		}
	}
}

// TestMeshCausalOrderPerGroup checks causal submissions stay ordered
// within their group while other groups churn.
func TestMeshCausalOrderPerGroup(t *testing.T) {
	const n, groups = 3, 3
	cfg := meshConfig(n, groups, 2)
	cfg.BatchWindow = 200 * time.Microsecond
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	inds, err := c.Node(1).Indications(1)
	if err != nil {
		t.Fatal(err)
	}
	const chain = 5
	for k := 0; k < chain; k++ {
		if _, err := c.Node(0).SendCausal(ctx, 1, []byte(fmt.Sprintf("c%d", k))); err != nil {
			t.Fatal(err)
		}
		// Background noise on the other groups.
		if _, err := c.Node(2).Send(ctx, 0, []byte("noise"), nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	deadline := time.After(20 * time.Second)
	for seen < chain {
		select {
		case ind := <-inds:
			if ind.Msg.ID.Proc != 0 {
				continue // another member's message
			}
			want := fmt.Sprintf("c%d", seen)
			if string(ind.Msg.Payload) != want {
				t.Fatalf("causal chain out of order: got %q, want %q", ind.Msg.Payload, want)
			}
			seen++
		case <-deadline:
			t.Fatalf("saw %d of %d causal messages", seen, chain)
		}
	}
}

// TestUDPMultiGroupConverges runs the full UDP runtime: G groups sharing
// one socket per member, demuxed by the group envelope, shipped through
// the shared burst sender.
func TestUDPMultiGroupConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n, groups, shards, perGroup = 3, 3, 2, 4
	reg := obs.New()
	peers := freePorts(t, n)
	nodes := make([]*MultiNode, n)
	for i := 0; i < n; i++ {
		node, err := NewMultiNode(Config{
			Config:        core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
			Groups:        groups,
			Shards:        shards,
			Self:          mid.ProcID(i),
			Peers:         peers,
			RoundDuration: 3 * time.Millisecond,
			BatchWindow:   2 * time.Millisecond,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()

	sendAll(t, nodes, groups, perGroup)
	want := mid.SeqVector{perGroup, perGroup, perGroup}
	waitGroupConverged(t, nodes, groups, want, 20*time.Second)

	if reg.Counter("topics_send_oversize_total").Value() != 0 {
		t.Error("multi-group traffic tripped the oversize guard")
	}
}

// TestUDPInteropGroupZero pins the wire-compat acceptance: MultiNodes
// hosting group 0 interoperate with single-group rt.UDPNodes in the same
// group — PR-6 frames and multi-group frames are byte-identical there —
// whichever view is in the majority.
func TestUDPInteropGroupZero(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	for _, singles := range []int{2, 1} {
		t.Run(fmt.Sprintf("%dudp+%dmulti", singles, 3-singles), func(t *testing.T) { interopGroupZero(t, singles) })
	}
}

// interopGroupZero forms one group of three over loopback: the first
// `singles` members are rt.UDPNodes, the rest MultiNodes{Groups: 1}.
func interopGroupZero(t *testing.T, singles int) {
	const n, per = 3, 4
	cfg := Config{
		Config:        core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
		Peers:         freePorts(t, n),
		RoundDuration: 3 * time.Millisecond,
		BatchWindow:   2 * time.Millisecond,
	}
	type member struct {
		send     func(ctx context.Context, payload []byte) (mid.MID, error)
		snapshot func(ctx context.Context, fn func(p *core.Process)) error
	}
	members := make([]member, n)
	var starts []func()
	for i := range members {
		cfg.Self = mid.ProcID(i)
		if i < singles {
			node, err := rt.NewUDPNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			members[i] = member{
				func(ctx context.Context, b []byte) (mid.MID, error) { return node.Send(ctx, b, nil) }, node.Snapshot}
			starts = append(starts, node.Start)
			t.Cleanup(node.Stop)
			continue
		}
		node, err := NewMultiNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = member{
			func(ctx context.Context, b []byte) (mid.MID, error) { return node.Send(ctx, 0, b, nil) },
			func(ctx context.Context, fn func(p *core.Process)) error { return node.Snapshot(ctx, 0, fn) }}
		starts = append(starts, node.Start)
		t.Cleanup(node.Stop)
	}
	for _, start := range starts {
		start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for k := 0; k < per; k++ {
		for i, m := range members {
			if _, err := m.send(ctx, []byte(fmt.Sprintf("m%d-%d", i, k))); err != nil {
				t.Fatalf("member %d send %d: %v", i, k, err)
			}
		}
	}
	want := mid.SeqVector{per, per, per}
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < n; {
		var got mid.SeqVector
		sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
		err := members[i].snapshot(sctx, func(p *core.Process) { got = p.Processed().Clone() })
		scancel()
		switch {
		case err == nil && got.Equal(want):
			i++
		case time.Now().After(deadline):
			t.Fatalf("mixed group never converged: member %d at %v (err %v), want %v", i, got, err, want)
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestLegacyNodeDropsGroupTaggedFrames pins graceful degradation in the
// other direction: a single-group rt.UDPNode receiving a group-tagged
// frame counts it as a drop instead of mis-decoding it.
func TestLegacyNodeDropsGroupTaggedFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	reg := obs.New()
	peers := freePorts(t, 2)
	node, err := rt.NewUDPNode(rt.UDPConfig{
		Config:        core.Config{N: 2, K: 100, R: 256, SelfExclusion: true},
		Self:          0,
		Peers:         peers,
		RoundDuration: 3 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Stop()

	multi, err := NewMultiNode(Config{
		Config:        core.Config{N: 2, K: 100, R: 256, SelfExclusion: true},
		Groups:        2,
		Shards:        1,
		Self:          1,
		Peers:         peers,
		RoundDuration: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	multi.Start()
	defer multi.Stop()

	// Group-1 traffic from the multi-group node reaches the legacy node's
	// socket as group-tagged frames it must refuse.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The group-1 peer never answers (the legacy node drops those
		// frames), so the confirm blocks until the context ends — the
		// round ticks alone already broadcast group-tagged REQUESTs.
		sctx, scancel := context.WithTimeout(ctx, 3*time.Second)
		defer scancel()
		multi.Send(sctx, 1, []byte("tagged"), nil)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for reg.Counter("topics_drop_group_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("legacy node never counted a dropped group-tagged frame")
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-done
}

// TestConcurrentDemuxShardDispatchStress is the race-detector stress for
// the demux path: many groups over few shards, every member sending on
// every group concurrently while whole-member and one-group status
// snapshots are read from other goroutines.
func TestConcurrentDemuxShardDispatchStress(t *testing.T) {
	const n, groups, shards, perGroup = 3, 8, 3, 4
	cfg := meshConfig(n, groups, shards)
	cfg.BatchWindow = 200 * time.Microsecond
	cfg.Metrics = obs.New()
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	nodes := members(c)

	// Concurrent observers: statuses while traffic flows.
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for j := 0; j < 50; j++ {
			for _, node := range nodes {
				sctx, scancel := context.WithTimeout(context.Background(), time.Second)
				node.Status(sctx)
				node.GroupStatus(sctx, uint32(j%groups))
				scancel()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	sendAll(t, nodes, groups, perGroup)
	<-obsDone
	waitGroupConverged(t, nodes, groups, mid.SeqVector{perGroup, perGroup, perGroup}, 30*time.Second)
}

// TestConfigValidation pins the construction-time guardrails.
func TestConfigValidation(t *testing.T) {
	base := meshConfig(3, 2, 1)
	if _, err := NewMultiCluster(base); err != nil {
		t.Fatalf("valid config refused: %v", err)
	}
	bad := base
	bad.Groups = -1
	if _, err := NewMultiCluster(bad); err == nil {
		t.Error("negative group count accepted")
	}
	bad = base
	bad.Shards = -2
	if _, err := NewMultiCluster(bad); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewMultiNode(Config{
		Config: core.Config{N: 2, K: 3, R: 8},
		Self:   0,
		Peers:  []string{"127.0.0.1:0"}, // one peer for a group of two
	}); err == nil {
		t.Error("mismatched peer list accepted")
	}
}
