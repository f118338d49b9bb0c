package rt

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// freePorts grabs n distinct loopback UDP ports.
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

// udpNodes builds n UDPNodes on loopback from the template cfg (Self and
// Peers are filled in), starts them, and stops them when the test ends.
func udpNodes(t *testing.T, n int, cfg UDPConfig) []*UDPNode {
	t.Helper()
	cfg.Peers = freePorts(t, n)
	nodes := make([]*UDPNode, n)
	for i := range nodes {
		cfg.Self = mid.ProcID(i)
		node, err := NewUDPNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(node.Stop)
	}
	for _, node := range nodes {
		node.Start()
	}
	return nodes
}

// awaitProcessed polls until every node's processed vector equals want.
func awaitProcessed(t *testing.T, nodes []*UDPNode, want mid.SeqVector) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < len(nodes); {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		st, err := nodes[i].Status(ctx)
		cancel()
		switch {
		case err == nil && st.Processed.Equal(want):
			i++
		case time.Now().After(deadline):
			t.Fatalf("UDP group never converged: node %d at %v (err %v), want %v", i, st.Processed, err, want)
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// sendEach has every node confirm perNode messages, all concurrently.
func sendEach(t *testing.T, nodes []*UDPNode, perNode int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, node := range nodes {
		for k := 0; k < perNode; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := node.Send(ctx, []byte(fmt.Sprintf("u%d-%d", i, k)), nil); err != nil {
					t.Errorf("node %d send %d: %v", i, k, err)
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

func TestUDPGroupConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n, perNode = 3, 4
	nodes := udpNodes(t, n, UDPConfig{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: 3 * time.Millisecond,
	})
	sendEach(t, nodes, perNode)
	awaitProcessed(t, nodes, mid.SeqVector{perNode, perNode, perNode})
}

func TestUDPConfigValidation(t *testing.T) {
	_, err := NewUDPNode(UDPConfig{
		Config: core.Config{N: 3, K: 2, R: 5, SelfExclusion: true},
		Self:   0,
		Peers:  []string{"127.0.0.1:0"},
	})
	if err == nil {
		t.Error("peer count mismatch must fail")
	}
	_, err = NewUDPNode(UDPConfig{
		Config: core.Config{N: 2, K: 2, R: 5, SelfExclusion: true},
		Self:   5,
		Peers:  []string{"127.0.0.1:0", "127.0.0.1:0"},
	})
	if err == nil {
		t.Error("self out of range must fail")
	}
	_, err = NewUDPNode(UDPConfig{
		Config: core.Config{N: 1, K: 1, R: 3, SelfExclusion: true},
		Self:   0,
		Peers:  []string{"not-an-address"},
	})
	if err == nil {
		t.Error("bad address must fail")
	}
}
