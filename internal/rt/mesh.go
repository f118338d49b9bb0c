package rt

import (
	"context"
	"fmt"
	"sync"

	"urcgc/internal/mid"
)

// Mesh is an in-process cluster of members — the link of tests, benchmarks,
// examples and the chaos harness. Every frame still crosses the wire codec,
// the group envelope and the datagram validator, so a Mesh exercises exactly
// the bytes a real network would carry, and a full inbox drops the datagram —
// an omission the protocol recovers from by design; delivery is a hand-off to
// the receiving member's shard loop instead of a socket. Rounds run in
// lockstep across every member and group (see clock).
type Mesh struct {
	cfg     Config
	members []*Member

	// tickDone is the lockstep clock's barrier: every session's tick ends by
	// putting one token in (capacity N x Groups, so it never blocks a shard),
	// and the clock collects them all before it opens the next round.
	tickDone chan struct{}

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewMesh builds (but does not start) N in-process members hosting every
// group. Config.Self and Config.Peers are ignored.
func NewMesh(cfg Config) (*Mesh, error) {
	cfg.fill(true)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Mesh{cfg: cfg, stopCh: make(chan struct{}), tickDone: make(chan struct{}, cfg.N*cfg.Groups)}
	c.members = make([]*Member, cfg.N)
	for i := range c.members {
		mc := cfg
		mc.Self = mid.ProcID(i)
		m := newMember(mc)
		m.mesh = c
		if err := m.initSessions(); err != nil {
			return nil, err
		}
		c.members[i] = m
	}
	return c, nil
}

// Start launches every member's shard loops and the lockstep clock.
func (c *Mesh) Start() {
	for _, m := range c.members {
		m.Start()
	}
	clk := newClock(c.members, c.tickDone, c.stopCh)
	c.wg.Add(1)
	go func() { defer c.wg.Done(); clk.run() }()
}

// Stop halts the clock, then every member, and waits for every goroutine to
// exit. Submissions still pending inside an open coalescer window are failed,
// so no Send is left waiting on a confirm that can never come.
func (c *Mesh) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
	for _, m := range c.members {
		m.Stop()
	}
}

// Node returns member i.
func (c *Mesh) Node(i mid.ProcID) *Member { return c.members[i] }

// N returns the group cardinality.
func (c *Mesh) N() int { return c.cfg.N }

// Groups returns how many groups every member hosts.
func (c *Mesh) Groups() int { return c.cfg.Groups }

// Restart revives member i as a joiner in every group — the kill-and-restart
// experiment. The fresh incarnation solicits a live sponsor, installs the
// state transfer and re-enters the view through a decision; the suicide rule
// becomes "leave, resync, rejoin". Each swap happens on the owning shard's
// goroutine, so in-flight datagrams never see a half-built entity; the
// killed flag clears afterwards, which also means the caller must first
// make sure any Fault injector no longer reports the member crashed, or
// the next round tick re-kills it. Confirm waiters of the previous
// incarnation stay registered: a message the new incarnation recovers and
// processes confirms normally, one lost with the crash waits out its
// context — exactly a restarted client's uncertainty.
func (c *Mesh) Restart(ctx context.Context, i mid.ProcID) error {
	if i < 0 || int(i) >= c.N() {
		return fmt.Errorf("rt: restart of member %d outside group of %d", i, c.N())
	}
	m := c.members[i]
	for _, s := range m.sessions {
		p, err := s.makeProc(true)
		if err != nil {
			return err
		}
		if err := s.shard.call(ctx, func() { s.proc = p }); err != nil {
			return err
		}
	}
	m.killed.Store(false)
	for _, s := range m.sessions {
		s.conf.rejoined()
	}
	return nil
}
