package topics

import (
	"sync"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/rt"
	"urcgc/internal/wire"
)

// MultiCluster is an in-process group of multi-group members, for tests
// and benchmarks: every frame still crosses the wire codec and the group
// envelope, so the demux path is exercised byte-for-byte as over UDP, but
// delivery is a function call instead of a socket.
//
// Rounds run in lockstep across every node and group — each round's
// barrier waits for all G×N protocol entities — removing
// scheduler-starvation artifacts exactly as rt.Cluster does for one group.
type MultiCluster struct {
	cfg   Config
	nodes []*MultiNode

	// tickDone is the lockstep clock's barrier: every session's Tick ends by
	// putting one token in (capacity N x Groups, so it never blocks a shard),
	// and the clock collects them all before it opens the next round.
	tickDone chan struct{}

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewMultiCluster builds (but does not start) N in-process multi-group
// members. Config.Self and Config.Peers are ignored; every member hosts
// every group.
func NewMultiCluster(cfg Config) (*MultiCluster, error) {
	cfg.fill(true)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &MultiCluster{cfg: cfg, stopCh: make(chan struct{}), tickDone: make(chan struct{}, cfg.N*cfg.Groups)}
	c.nodes = make([]*MultiNode, cfg.N)
	for i := range c.nodes {
		ncfg := cfg
		ncfg.Self = mid.ProcID(i)
		n := newMultiNode(ncfg)
		n.mesh = c
		c.nodes[i] = n
	}
	for _, n := range c.nodes {
		if err := n.initSessions(func(s *session) core.Transport { return meshTransport{s} }); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Start launches every node's shard loops and the lockstep clock.
func (c *MultiCluster) Start() {
	for _, n := range c.nodes {
		n.Start()
	}
	c.wg.Add(1)
	go func() { defer c.wg.Done(); c.clock() }()
}

// Stop halts the clock, then every node. Pending coalescer submissions are
// failed, never leaked.
func (c *MultiCluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
	for _, n := range c.nodes {
		n.Stop()
	}
}

// Node returns member i.
func (c *MultiCluster) Node(i mid.ProcID) *MultiNode { return c.nodes[i] }

// N returns the group cardinality.
func (c *MultiCluster) N() int { return c.cfg.N }

// Groups returns how many groups every member hosts.
func (c *MultiCluster) Groups() int { return c.cfg.Groups }

// clock drives rounds in lockstep: every protocol entity of every node
// finishes round r before any starts r+1, and at least RoundDuration
// elapses per round.
func (c *MultiCluster) clock() {
	// One timer paces every round. It is only ever re-armed after its tick
	// was received, so its channel is empty at each Reset.
	pace := time.NewTimer(0)
	defer pace.Stop()
	<-pace.C
	for round := 0; ; round++ {
		start := time.Now()
		for _, n := range c.nodes {
			for _, s := range n.sessions {
				select {
				case s.shard.inbox.C <- rt.NewEvent(rt.Event{Kind: rt.EvTick, To: s, Round: round}):
				case <-c.stopCh:
					return
				}
			}
		}
		for i := 0; i < c.cfg.N*c.cfg.Groups; i++ {
			select {
			case <-c.tickDone:
			case <-c.stopCh:
				return
			}
		}
		if rest := c.cfg.RoundDuration - time.Since(start); rest > 0 {
			pace.Reset(rest)
			select {
			case <-pace.C:
			case <-c.stopCh:
				return
			}
		}
	}
}

// meshTransport frames one group's PDUs with the group envelope and feeds
// them straight into the destination node's demultiplexer — the same
// validate-decode-dispatch path UDP frames take. The frame buffer never
// outlives the call: demux decodes a self-owned PDU before returning, so
// the pooled buffer goes back immediately.
type meshTransport struct{ s *session }

func (t meshTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	m := t.s.m
	if dst == m.cfg.Self || dst < 0 || int(dst) >= m.cfg.N {
		return
	}
	if m.cfg.DropFrame != nil && m.cfg.DropFrame(t.s.group, m.cfg.Self, dst) {
		return
	}
	frame, err := wire.MarshalFrame(t.s.group, m.cfg.Self, pdu)
	if err != nil || !m.checkSize(frame, pdu) {
		wire.PutBuf(frame)
		return
	}
	m.mesh.nodes[dst].demux(frame)
	wire.PutBuf(frame)
}

// Broadcast marshals the PDU exactly once; every destination demultiplexes
// its own self-owned PDU from the same bytes.
func (t meshTransport) Broadcast(pdu wire.PDU) {
	m := t.s.m
	frame, err := wire.MarshalFrame(t.s.group, m.cfg.Self, pdu)
	if err != nil || !m.checkSize(frame, pdu) {
		wire.PutBuf(frame)
		return
	}
	for i := 0; i < m.cfg.N; i++ {
		dst := mid.ProcID(i)
		if dst == m.cfg.Self {
			continue
		}
		if m.cfg.DropFrame != nil && m.cfg.DropFrame(t.s.group, m.cfg.Self, dst) {
			continue
		}
		m.mesh.nodes[dst].demux(frame)
	}
	wire.PutBuf(frame)
}
