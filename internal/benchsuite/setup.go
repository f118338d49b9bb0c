package benchsuite

import (
	"context"
	"net"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/rt"
	"urcgc/internal/topics"
)

// ---- Set-up cost: construct -> first confirm -> stop ----
//
// One iteration builds a group's members the way the end-to-end benchmark's
// workloads do (its 16 384-slot indication queues included), starts them,
// confirms one message at member 0 and stops them: B/op and allocs/op are
// what a member costs to stand up, the figure behind the gated setup_s and
// peak_rss_mb. Every view of the one runtime has its family, so a change that
// makes one of them dearer than the others shows here before it shows there.

const setupIndicationDepth = 1 << 14

var setupCore = core.Config{K: 3, R: 8, SelfExclusion: true}

// setupPeers reserves n loopback UDP ports by binding and releasing them.
func setupPeers(b *testing.B, n int) []string {
	b.Helper()
	peers := make([]string, n)
	for i := range peers {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		peers[i] = c.LocalAddr().String()
		defer c.Close()
	}
	return peers
}

// benchSetup times build (which returns the started group's send and stop)
// plus one confirm plus stop.
func benchSetup(b *testing.B, build func() (send func(context.Context) error, stop func())) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		send, stop := build()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := send(ctx)
		cancel()
		stop()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// socketMember is what the socket views share: rt.UDPNode and
// topics.MultiNode both start and stop like this.
type socketMember interface {
	Start()
	Stop()
}

// benchSocketSetup stands up three socket members on loopback: mk builds
// member self and returns it with its Send.
func benchSocketSetup(b *testing.B, mk func(self mid.ProcID, peers []string) (socketMember, func(context.Context) error, error)) {
	const n = 3
	benchSetup(b, func() (func(context.Context) error, func()) {
		peers := setupPeers(b, n)
		nodes := make([]socketMember, n)
		var send0 func(context.Context) error
		for i := range nodes {
			node, send, err := mk(mid.ProcID(i), peers)
			if err != nil {
				b.Fatal(err)
			}
			if nodes[i] = node; i == 0 {
				send0 = send
			}
		}
		for _, node := range nodes {
			node.Start()
		}
		return send0, func() {
			for _, node := range nodes {
				node.Stop()
			}
		}
	})
}

// SetupUDPNodeN3 stands up three rt.UDPNodes on loopback (lan_light's host).
func SetupUDPNodeN3(b *testing.B) {
	cc := setupCore
	cc.N = 3
	benchSocketSetup(b, func(self mid.ProcID, peers []string) (socketMember, func(context.Context) error, error) {
		node, err := rt.NewUDPNode(rt.UDPConfig{
			Config: cc, Self: self, Peers: peers,
			RoundDuration: 20 * time.Millisecond, IndicationDepth: setupIndicationDepth,
		})
		return node, func(ctx context.Context) error {
			_, err := node.Send(ctx, []byte("first"), nil)
			return err
		}, err
	})
}

// SetupMultiNodeN3G1 stands up three single-group topics.MultiNodes on
// loopback (lan_saturated's host).
func SetupMultiNodeN3G1(b *testing.B) {
	cc := setupCore
	cc.N, cc.BatchMax = 3, 32
	benchSocketSetup(b, func(self mid.ProcID, peers []string) (socketMember, func(context.Context) error, error) {
		node, err := topics.NewMultiNode(topics.Config{
			Config: cc, Groups: 1, Shards: 1, Self: self, Peers: peers,
			RoundDuration: 20 * time.Millisecond, BatchWindow: time.Millisecond,
			IndicationDepth: setupIndicationDepth,
		})
		return node, func(ctx context.Context) error {
			_, err := node.Send(ctx, 0, []byte("first"), nil)
			return err
		}, err
	})
}

// SetupClusterN5 stands up a five-member rt.Cluster (mesh_faulty's host).
func SetupClusterN5(b *testing.B) {
	cc := setupCore
	cc.N = 5
	benchSetup(b, func() (func(context.Context) error, func()) {
		c, err := rt.NewCluster(rt.Config{
			Config: cc, RoundDuration: 10 * time.Millisecond, IndicationDepth: setupIndicationDepth,
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		return func(ctx context.Context) error {
			_, err := c.Node(0).Send(ctx, []byte("first"), nil)
			return err
		}, c.Stop
	})
}
