// Package rt runs the urcgc protocol in real time. It holds the one live
// runtime — Member: sessions (one protocol entity per hosted group) on shard
// loops over a link, real UDP sockets or the in-process hand-off of a Mesh —
// and the single-group views of it behind the examples and the UDP node (the
// paper's "prototype over an Ethernet LAN" — Section 7): Cluster and Node over
// a Mesh, UDPNode over a socket. internal/topics holds the multi-group views.
//
// Every PDU crossing a member boundary goes through the wire codec, so the
// in-process mesh exercises exactly the bytes a real network would carry,
// and a full inbox drops the datagram — an omission the protocol recovers
// from by design.
package rt

import (
	"context"
	"fmt"

	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
)

// Cluster is an in-process single-group cluster: a Mesh whose members host
// group 0 only, handed out as Nodes.
type Cluster struct {
	*Mesh
	nodes []*Node
}

// NewCluster builds (but does not start) a live group.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Groups > 1 {
		return nil, fmt.Errorf("rt: a Cluster hosts one group, not %d (see topics.NewMultiCluster)", cfg.Groups)
	}
	mesh, err := NewMesh(cfg)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Mesh: mesh, nodes: make([]*Node, len(mesh.members))}
	for i, m := range mesh.members {
		c.nodes[i] = &Node{single{m}}
	}
	return c, nil
}

// Node returns member i.
func (c *Cluster) Node(i mid.ProcID) *Node { return c.nodes[i] }

// single is a Member seen as a member of its group 0 alone: the method set
// Node and UDPNode share.
type single struct{ m *Member }

// ID returns the member identifier.
func (n single) ID() mid.ProcID { return n.m.ID() }

// Send implements the urcgc-data.Rq/Conf primitive pair: it submits the
// payload with the given explicit cross-sequence dependencies and blocks
// until the message has been processed locally (the Confirm), or the
// context ends.
func (n single) Send(ctx context.Context, payload []byte, deps mid.DepList) (mid.MID, error) {
	return n.m.Send(ctx, 0, payload, deps)
}

// SendCausal is Send with the conservative depend-on-everything-seen
// labelling computed inside the loop goroutine.
func (n single) SendCausal(ctx context.Context, payload []byte) (mid.MID, error) {
	return n.m.SendCausal(ctx, 0, payload)
}

// Indications returns the urcgc-data.Ind stream: every message processed at
// this member, in causal order.
func (n single) Indications() <-chan Indication { return n.m.sessions[0].ind.ch }

// Left returns the reason this member halted, if it has.
func (n single) Left() (core.LeaveReason, bool) { return n.m.Left(0) }

// Snapshot runs fn inside the loop goroutine with safe access to the
// protocol entity, and waits for it (see Member.Snapshot).
func (n single) Snapshot(ctx context.Context, fn func(p *core.Process)) error {
	return n.m.Snapshot(ctx, 0, fn)
}

// Status captures a race-free sample of the member's protocol state by
// running inside the loop goroutine.
func (n single) Status(ctx context.Context) (Status, error) { return n.m.GroupStatus(ctx, 0) }

// Lifecycle returns the member's message-lifecycle tracer, or nil when
// tracing is disabled.
func (n single) Lifecycle() *lifecycle.Tracer { return n.m.Lifecycle(0) }

// Node is one live member of a Cluster.
type Node struct{ single }

// Kill fail-stops the node (see Member.Kill).
func (n *Node) Kill() { n.m.Kill() }

// Killed reports whether the node was fail-stopped.
func (n *Node) Killed() bool { return n.m.Killed() }
