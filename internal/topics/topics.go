// Package topics runs many independent urcgc groups inside one process
// over one shared transport. Each group is a full protocol entity — its
// own rotating coordinator, history buffer and causal order — multiplexed
// onto a single UDP socket (or one in-process mesh) by the group-id frame
// envelope from internal/wire.
//
// The runtime is sharded: groups hash onto S shard loops, each shard a
// goroutine owning its groups' core.Process instances, so G groups cost S
// protocol goroutines rather than G and independent groups make progress
// in parallel. One reader goroutine demultiplexes incoming frames onto the
// shards; one sender goroutine coalesces outgoing datagrams from every
// group into burst syscalls.
//
// Demux ownership rule: the reader's receive buffer never crosses a
// goroutine boundary. A frame is validated and decoded into a self-owned
// PDU on the reader goroutine; only that PDU travels into a shard inbox.
// Symmetrically, outgoing frames are pooled buffers owned by the shared
// sender (refcounted across a broadcast fan-out) and return to the wire
// pool after the last write.
package topics

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
	"urcgc/internal/wire"
)

// Config configures one member's multi-group runtime. The embedded
// core.Config applies to every group; all groups share the member
// identity, the peer set and the socket.
type Config struct {
	core.Config
	// Groups is how many independent groups (ids 0..Groups-1) this member
	// hosts. Group 0 is wire-compatible with single-group nodes. Default 1.
	Groups int
	// Shards is how many shard loops carry the groups. Groups hash onto
	// shards (group mod Shards); each shard is one goroutine owning its
	// groups' protocol entities. Default min(Groups, GOMAXPROCS).
	Shards int
	// Self is this member's identity in every group.
	Self mid.ProcID
	// Peers maps every ProcID to its UDP address; Peers[Self] is our bind
	// address. Ignored by the in-process mesh.
	Peers []string
	// RoundDuration is the wall-clock round length, shared by all groups.
	// Default 20ms over UDP, 2ms on the mesh.
	RoundDuration time.Duration
	// BatchWindow enables each group's coalescing sender, exactly as in
	// the single-group runtimes. Zero disables coalescing.
	BatchWindow time.Duration
	// InboxDepth bounds each shard's event queue (default 4096). A full
	// shard inbox drops datagrams — an omission the protocol repairs.
	InboxDepth int
	// IndicationDepth bounds each group's indication queue (default 1024).
	IndicationDepth int
	// TxDepth bounds the shared outgoing-datagram queue (default 4096).
	TxDepth int
	// Metrics, when non-nil, receives per-group protocol series (each
	// carrying node and group labels) plus shared socket accounting.
	Metrics *obs.Registry
	// Lifecycle, when non-nil, enables per-MID span tracking on every
	// group: each session gets its own group-tagged lifecycle.Tracer
	// (reachable via Lifecycle/Lifecycles for /trace), with the watchdog
	// Blame defaulting to naming the group and its shard. Nil keeps the
	// hot path free of tracing branches.
	Lifecycle *lifecycle.Options
	// DropFrame, when non-nil, is consulted before every outgoing frame
	// with (group, src, dst); returning true silently drops it. A test
	// seam for partitioning individual groups (the chaos harness's
	// group-partition soak); nil in production.
	DropFrame func(group uint32, src, dst mid.ProcID) bool
	// Capture, when non-nil, records every frame crossing this member's
	// shared socket — ingress with the demux verdict, egress with the
	// send verdict, every group on the one ring (records carry the group
	// id) — for /capture dumps and offline replay. Nil costs one pointer
	// check per frame and zero allocations.
	Capture *capture.Ring
	// Logf receives throttled operator-visible warnings; nil means
	// log.Printf.
	Logf func(format string, args ...any)
	// Joined, when non-nil, fires on the owning shard goroutine each time a
	// member started with Config.Join set is re-admitted into one hosted
	// group. Groups rejoin independently — a restarted multi-group member
	// is fully back only once every hosted group has fired.
	Joined func(group uint32)
}

func (c *Config) fill(mesh bool) {
	if c.Groups == 0 {
		c.Groups = 1
	}
	if c.Shards == 0 {
		c.Shards = c.Groups
		if p := runtime.GOMAXPROCS(0); c.Shards > p {
			c.Shards = p
		}
	}
	if c.RoundDuration == 0 {
		if mesh {
			c.RoundDuration = 2 * time.Millisecond
		} else {
			c.RoundDuration = 20 * time.Millisecond
		}
	}
	if c.BatchWindow > 0 && c.BatchMax == 0 {
		c.BatchMax = core.DefaultBatchMax
	}
	if c.InboxDepth == 0 {
		c.InboxDepth = 4096
	}
	if c.IndicationDepth == 0 {
		c.IndicationDepth = 1024
	}
	if c.TxDepth == 0 {
		c.TxDepth = 4096
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

func (c *Config) validate() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Groups < 1 || c.Groups > wire.MaxGroupID {
		return fmt.Errorf("topics: %d groups outside [1,%d]", c.Groups, int64(wire.MaxGroupID))
	}
	if c.Shards < 1 {
		return fmt.Errorf("topics: %d shards", c.Shards)
	}
	return nil
}

// Indication is one message processed in causal order, tagged with the
// group that carried it.
type Indication struct {
	Group uint32
	Msg   causal.Message
}

var errStopped = fmt.Errorf("topics: node stopped")

// MultiNode is one member of every hosted group: G protocol entities over
// one socket, S shard loops, one reader, one shared sender.
type MultiNode struct {
	cfg      Config
	sessions []*session
	shards   []*shard

	// UDP mode; all nil on a mesh node.
	conn  *net.UDPConn
	peers []*net.UDPAddr
	tx    *txSender

	mesh *MultiCluster // set on mesh nodes only

	mobs *multiObs

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	warn     rt.Warner // throttled operator-visible warnings
}

// NewMultiNode binds the shared socket and prepares every group's protocol
// entity. Start launches the runtime; Stop halts it.
func NewMultiNode(cfg Config) (*MultiNode, error) {
	cfg.fill(false)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Peers) != cfg.N {
		return nil, fmt.Errorf("topics: %d peers for group of %d", len(cfg.Peers), cfg.N)
	}
	if cfg.Self < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("topics: self %d outside group", cfg.Self)
	}
	m := newMultiNode(cfg)
	m.peers = make([]*net.UDPAddr, cfg.N)
	for i, p := range cfg.Peers {
		addr, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			return nil, fmt.Errorf("topics: peer %d %q: %w", i, p, err)
		}
		m.peers[i] = addr
	}
	conn, err := net.ListenUDP("udp", m.peers[cfg.Self])
	if err != nil {
		return nil, fmt.Errorf("topics: bind %q: %w", cfg.Peers[cfg.Self], err)
	}
	m.conn = conn
	m.tx = newTxSender(m)
	if err := m.initSessions(func(s *session) core.Transport { return groupTransport{s} }); err != nil {
		conn.Close()
		return nil, err
	}
	return m, nil
}

func newMultiNode(cfg Config) *MultiNode {
	m := &MultiNode{
		cfg:    cfg,
		stopCh: make(chan struct{}),
		mobs:   newMultiObs(cfg.Metrics),
		warn:   rt.Warner{Logf: cfg.Logf, Prefix: fmt.Sprintf("topics[%d]: ", cfg.Self), Captured: cfg.Capture != nil},
	}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i] = &shard{inbox: rt.NewInbox(cfg.InboxDepth, m.stopCh, errStopped)}
	}
	return m
}

// initSessions builds one protocol entity per group, each wired to its
// shard and to the transport tp constructs for it.
func (m *MultiNode) initSessions(tp func(*session) core.Transport) error {
	m.sessions = make([]*session, m.cfg.Groups)
	for g := range m.sessions {
		s := &session{
			m:     m,
			group: uint32(g),
			shard: m.shards[g%len(m.shards)],
			ind:   make(chan Indication, m.cfg.IndicationDepth),
			obs:   rt.NewNodeObs(m.cfg.Metrics, m.cfg.Self, m.cfg.N, "group", strconv.Itoa(g)),
			gobs:  newGroupObs(m.cfg.Metrics, m.cfg.Self, g),
		}
		if m.cfg.Lifecycle != nil {
			opts := *m.cfg.Lifecycle
			if opts.Blame == nil {
				group, shardIdx, shards := g, g%len(m.shards), len(m.shards)
				opts.Blame = func([]mid.MID) string {
					return fmt.Sprintf("group %d on shard %d/%d", group, shardIdx, shards)
				}
			}
			s.tracer = lifecycle.NewGroup(m.cfg.Self, m.cfg.N, s.group, opts, m.cfg.Metrics)
		}
		cb := core.Callbacks{
			OnProcess: func(msg *causal.Message) {
				s.processed.Add(1)
				s.conf.Processed(msg.ID)
				select {
				case s.ind <- Indication{Group: s.group, Msg: *msg}:
				default: // slow consumer: indication dropped, like a full SAP queue
					s.obs.IndicationDropped()
				}
			},
			// Shard goroutine, like every core callback: settles the
			// submit→stable histogram for our own newly stable messages.
			OnStable: func(clean mid.SeqVector) {
				s.settleStable(clean)
			},
			OnLeave: func(r core.LeaveReason) {
				s.conf.Leave(r)
				clear(s.stableWait)
			},
			OnJoined: func() {
				if m.cfg.Joined != nil {
					m.cfg.Joined(s.group)
				}
			},
		}
		if s.gobs != nil {
			// Shard goroutine: starts the submit→stable clock of every own
			// message the protocol accepts.
			s.stableWait = make(map[mid.MID]time.Time)
			cb.OnGenerate = func(msg *causal.Message) { s.stableWait[msg.ID] = time.Now() }
		}
		proc, err := core.NewProcess(m.cfg.Self, m.cfg.Config, tp(s), rt.InstallLifecycle(s.tracer, s.obs.Install(cb)))
		if err != nil {
			return fmt.Errorf("topics: group %d: %w", g, err)
		}
		s.proc = proc
		s.obs.MarkJoining(m.cfg.Join)
		if m.cfg.BatchWindow > 0 {
			s.coal = rt.NewCoalescer(m.cfg.BatchWindow, m.cfg.BatchMax, m.cfg.BatchBytes, &s.shard.inbox, s, s.obs.Coalesced)
		}
		m.sessions[g] = s
	}
	return nil
}

// Start launches the shard loops and, over UDP, the reader, the round
// clock and the shared sender. Mesh nodes are driven by their cluster.
func (m *MultiNode) Start() {
	for _, sh := range m.shards {
		sh := sh
		m.wg.Add(1)
		go func() { defer m.wg.Done(); sh.inbox.Loop() }()
	}
	if m.conn != nil {
		m.wg.Add(3)
		go func() { defer m.wg.Done(); m.reader() }()
		go func() { defer m.wg.Done(); m.clock() }()
		go func() { defer m.wg.Done(); m.tx.loop() }()
	}
}

// Stop halts every group and closes the socket. Submissions still pending
// inside any group's open coalescer window are failed, never leaked.
func (m *MultiNode) Stop() {
	m.stopOnce.Do(func() {
		close(m.stopCh)
		if m.conn != nil {
			m.conn.Close()
		}
		for _, s := range m.sessions {
			s.coal.Stop()
		}
	})
	m.wg.Wait()
}

// Groups returns how many groups this member hosts.
func (m *MultiNode) Groups() int { return len(m.sessions) }

// Shards returns how many shard loops carry them.
func (m *MultiNode) Shards() int { return len(m.shards) }

// LocalAddr returns the bound UDP address (useful with port 0 in tests),
// or nil on a mesh node or when the address is unavailable.
func (m *MultiNode) LocalAddr() *net.UDPAddr {
	if m.conn == nil {
		return nil
	}
	addr, _ := m.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

func (m *MultiNode) session(group uint32) (*session, error) {
	if int64(group) >= int64(len(m.sessions)) {
		return nil, fmt.Errorf("topics: group %d outside [0,%d)", group, len(m.sessions))
	}
	return m.sessions[group], nil
}

// Send submits a payload on one group and blocks until it is processed
// locally (the urcgc-data Rq/Conf pair), or the context ends.
func (m *MultiNode) Send(ctx context.Context, group uint32, payload []byte, deps mid.DepList) (mid.MID, error) {
	s, err := m.session(group)
	if err != nil {
		return mid.MID{}, err
	}
	return s.send(ctx, payload, deps, false)
}

// SendCausal is Send with the conservative depend-on-everything-seen
// labelling computed inside the owning shard.
func (m *MultiNode) SendCausal(ctx context.Context, group uint32, payload []byte) (mid.MID, error) {
	s, err := m.session(group)
	if err != nil {
		return mid.MID{}, err
	}
	return s.send(ctx, payload, nil, true)
}

// Indications returns one group's urcgc-data.Ind stream.
func (m *MultiNode) Indications(group uint32) (<-chan Indication, error) {
	s, err := m.session(group)
	if err != nil {
		return nil, err
	}
	return s.ind, nil
}

// Left reports whether and why this member halted itself in one group.
// Groups leave independently: an exclusion in one group does not touch the
// others.
func (m *MultiNode) Left(group uint32) (core.LeaveReason, bool) {
	s, err := m.session(group)
	if err != nil {
		return 0, false
	}
	return s.conf.Left()
}

// Snapshot runs fn with safe access to one group's protocol entity, on the
// shard goroutine that owns it.
func (m *MultiNode) Snapshot(ctx context.Context, group uint32, fn func(p *core.Process)) error {
	s, err := m.session(group)
	if err != nil {
		return err
	}
	return s.shard.inbox.Call(ctx, func() { fn(s.proc) })
}

// GroupStatus captures a race-free sample of one group's protocol state,
// in the same shape the single-group runtimes serve.
func (m *MultiNode) GroupStatus(ctx context.Context, group uint32) (rt.Status, error) {
	var st rt.Status
	err := m.Snapshot(ctx, group, func(p *core.Process) { st = rt.StatusOf(p) })
	return st, err
}

// Status reports group 0 in the single-group shape, annotated with the
// per-group processed counts and (on a multi-group member) one compact
// GroupStatus per hosted group, so the /status endpoint keeps its shape
// for single-group consumers while urcgc-inspect can judge view
// divergence and progress skew per group.
func (m *MultiNode) Status(ctx context.Context) (rt.Status, error) {
	st, err := m.GroupStatus(ctx, 0)
	if err != nil {
		return st, err
	}
	st.GroupProcessed = m.GroupCounts()
	if len(m.sessions) > 1 {
		st.Groups = make([]rt.GroupStatus, len(m.sessions))
		for g := range m.sessions {
			gs := &st.Groups[g]
			gid := uint32(g)
			if err := m.Snapshot(ctx, gid, func(p *core.Process) { *gs = rt.GroupStatusOf(gid, p) }); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// Lifecycle returns one group's span tracer, or nil when tracing is
// disabled or the group is not hosted. A nil tracer is a no-op receiver,
// so callers may use the result unconditionally.
func (m *MultiNode) Lifecycle(group uint32) *lifecycle.Tracer {
	s, err := m.session(group)
	if err != nil {
		return nil
	}
	return s.tracer
}

// Lifecycles returns the per-group span tracers indexed by group id, or
// nil when tracing is disabled.
func (m *MultiNode) Lifecycles() []*lifecycle.Tracer {
	if m.cfg.Lifecycle == nil {
		return nil
	}
	out := make([]*lifecycle.Tracer, len(m.sessions))
	for g, s := range m.sessions {
		out[g] = s.tracer
	}
	return out
}

// GroupCounts returns the number of messages processed per group so far.
// Safe from any goroutine, even after Stop — it is the shutdown summary's
// data source.
func (m *MultiNode) GroupCounts() []int64 {
	out := make([]int64, len(m.sessions))
	for i, s := range m.sessions {
		out[i] = s.processed.Load()
	}
	return out
}

// shard is one loop goroutine owning the protocol entities of every group
// hashed onto it. Everything a session's core.Process does happens on its
// shard's goroutine, preserving the single-owner concurrency contract.
type shard struct {
	inbox rt.Inbox
}

// enqueue hands the shard loop a tick or datagram event for session s; a
// full inbox drops it, like any datagram, charging both the shared counter
// and the group's own. Reports whether it was accepted.
func (s *session) enqueue(e rt.Event) bool {
	e.To = s
	if s.shard.inbox.Offer(e) {
		return true
	}
	if s.m.mobs != nil {
		s.m.mobs.shardDrops.Inc()
	}
	if s.gobs != nil {
		s.gobs.shardDrops.Inc()
	}
	return false
}

// session is one group's protocol entity plus its user-facing plumbing:
// confirm waiters, indication stream, coalescing sender, labeled metrics.
type session struct {
	m      *MultiNode
	group  uint32
	shard  *shard
	proc   *core.Process
	obs    *rt.NodeObs
	gobs   *groupObs         // nil when metrics are disabled
	tracer *lifecycle.Tracer // nil unless Config.Lifecycle is set
	coal   *rt.Coalescer     // nil unless BatchWindow is set
	ind    chan Indication

	processed atomic.Int64

	// stableWait maps our in-flight submissions to their protocol-submit
	// time until uniform stability covers them. Shard goroutine only
	// (written in OnGenerate, settled in OnStable, cleared in OnLeave), so
	// it needs no lock. Nil when metrics are disabled.
	stableWait map[mid.MID]time.Time

	conf rt.Confirms // confirm waiters, leave record, the submit step
}

// groupObs is one group's share of the runtime accounting the shared
// multiObs counters cannot attribute: which group's shard inbox dropped,
// which group's ticks were skipped, and the group's submit→stable latency.
type groupObs struct {
	shardDrops   *obs.Counter
	ticksSkipped *obs.Counter
	submitStable *obs.Histogram
}

func newGroupObs(reg *obs.Registry, self mid.ProcID, group int) *groupObs {
	if reg == nil {
		return nil
	}
	kv := []string{"node", strconv.Itoa(int(self)), "group", strconv.Itoa(group)}
	return &groupObs{
		shardDrops:   reg.Counter(obs.Labeled("topics_shard_dropped_total", kv...)),
		ticksSkipped: reg.Counter(obs.Labeled("topics_ticks_skipped_total", kv...)),
		submitStable: reg.Histogram(obs.Labeled("topics_submit_to_stable_seconds", kv...), obs.DurationBuckets),
	}
}

// settleStable observes the submit→stable latency of every own submission
// the full-group clean vector newly covers. Shard goroutine only.
func (s *session) settleStable(clean mid.SeqVector) {
	if s.gobs == nil || len(s.stableWait) == 0 {
		return
	}
	now := time.Now()
	for id, t0 := range s.stableWait {
		if int(id.Proc) < len(clean) && id.Seq <= clean[id.Proc] {
			s.gobs.submitStable.Observe(now.Sub(t0).Seconds())
			delete(s.stableWait, id)
		}
	}
}

// A session is the rt.Host of its events: the three methods below run on its
// shard's goroutine only.

// Tick opens a round; on a mesh node it also reports to the lockstep clock's
// barrier.
func (s *session) Tick(round int) {
	s.obs.MarkRound(round)
	s.proc.StartRound(round)
	if s.m.mesh != nil {
		s.m.mesh.tickDone <- struct{}{}
	}
}

// Recv delivers a decoded PDU.
func (s *session) Recv(src mid.ProcID, pdu wire.PDU) { s.proc.Recv(src, pdu) }

// Submit runs queued submissions.
func (s *session) Submit(head *rt.Submission) { s.conf.Submit(s.proc, s.obs, head) }

func (s *session) send(ctx context.Context, payload []byte, deps mid.DepList, causal bool) (mid.MID, error) {
	return s.conf.Send(ctx, &s.shard.inbox, s.coal, s, s.obs, payload, deps, causal)
}

// clock drives every group's rounds off one free-running ticker (UDP mode;
// the mesh cluster uses a lockstep barrier instead). A full shard inbox
// skips that group's tick — an overload omission the protocol repairs.
func (m *MultiNode) clock() {
	t := time.NewTicker(m.cfg.RoundDuration)
	defer t.Stop()
	round := 0
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			r := round
			round++
			for _, s := range m.sessions {
				if !s.enqueue(rt.Event{Kind: rt.EvTick, Round: r}) {
					if m.mobs != nil {
						m.mobs.ticksSkipped.Inc()
					}
					if s.gobs != nil {
						s.gobs.ticksSkipped.Inc()
					}
					m.warn.Warnf("group %d round tick %d skipped: shard inbox full (overload omission)", s.group, r)
				}
			}
		}
	}
}

// reader is the single demultiplexing receiver: it owns the receive buffer
// for the whole node and never lets it cross a goroutine boundary.
func (m *MultiNode) reader() {
	rt.ReadDatagrams(m.conn, m.stopCh, func(err error) {
		if m.mobs != nil {
			m.mobs.dropReadErr.Inc()
		}
		m.warn.Warnf("socket read error (datagram lost): %v", err)
	}, func(pkt []byte, _ netip.AddrPort) { m.demux(pkt) })
}

// demux validates one envelope frame, decodes the PDU into self-owned
// memory, and dispatches it onto the owning group's shard. pkt is read
// only during the call; the caller may reuse it immediately after —
// the demux ownership rule that keeps the reader single-buffered.
func (m *MultiNode) demux(pkt []byte) {
	if m.mobs != nil {
		m.mobs.recvDatagrams.Inc()
		m.mobs.recvBytes.Add(int64(len(pkt)))
	}
	if len(pkt) > rt.MaxDatagram {
		if m.mobs != nil {
			m.mobs.dropOversize.Inc()
		}
		seq := m.cfg.Capture.Record(capture.DirIngress, 0, mid.None, capture.DropOversize, 0, nil)
		m.warn.Warnf("oversize datagram truncated past %d bytes: dropped%s", rt.MaxDatagram, m.warn.CapNote(seq))
		return
	}
	group, src, body, err := wire.ParseEnvelope(pkt)
	if err != nil {
		if m.mobs != nil {
			m.mobs.dropEnvelope.Inc()
		}
		seq := m.cfg.Capture.Record(capture.DirIngress, 0, mid.None, capture.DropShort, 0, pkt)
		m.warn.Warnf("unparseable datagram (%d bytes): dropped%s", len(pkt), m.warn.CapNote(seq))
		return
	}
	if int64(group) >= int64(len(m.sessions)) {
		if m.mobs != nil {
			m.mobs.dropGroup.Inc()
		}
		seq := m.cfg.Capture.Record(capture.DirIngress, group, src, capture.DropGroup, 0, body)
		m.warn.Warnf("datagram for unhosted group %d (hosting %d): dropped%s", group, len(m.sessions), m.warn.CapNote(seq))
		return
	}
	if src < 0 || int(src) >= m.cfg.N || src == m.cfg.Self {
		// Nobody in the group sends as a non-member, and nobody but us sends
		// as us — and our own frames never come back through the socket.
		if m.mobs != nil {
			m.mobs.dropBadSrc.Inc()
		}
		seq := m.cfg.Capture.Record(capture.DirIngress, group, src, capture.DropBadSrc, 0, body)
		m.warn.Warnf("datagram claims member %d (group of %d, we are %d): dropped%s", src, m.cfg.N, m.cfg.Self, m.warn.CapNote(seq))
		return
	}
	s := m.sessions[group] // its shard's free list recycles control records
	pdu, err := s.shard.inbox.Free.Unmarshal(body)
	if err != nil {
		if m.mobs != nil {
			m.mobs.dropDecode.Inc()
		}
		seq := m.cfg.Capture.Record(capture.DirIngress, group, src, capture.DropDecode, 0, body)
		m.warn.Warnf("undecodable datagram for group %d: %v%s", group, err, m.warn.CapNote(seq))
		return
	}
	if s.enqueue(rt.Event{Kind: rt.EvRecv, Src: src, PDU: pdu}) {
		m.cfg.Capture.Record(capture.DirIngress, group, src, capture.Delivered, 0, body)
	} else {
		seq := m.cfg.Capture.Record(capture.DirIngress, group, src, capture.DropInbox, 0, body)
		m.warn.Warnf("group %d: shard inbox full, datagram from member %d dropped (overload omission)%s", group, src, m.warn.CapNote(seq))
	}
}

// multiObs is the shared (not per-group) accounting: socket traffic, demux
// verdicts and sender behavior. Nil when metrics are disabled.
type multiObs struct {
	recvDatagrams *obs.Counter
	recvBytes     *obs.Counter
	dropEnvelope  *obs.Counter
	dropGroup     *obs.Counter
	dropBadSrc    *obs.Counter
	dropDecode    *obs.Counter
	dropOversize  *obs.Counter
	dropReadErr   *obs.Counter
	shardDrops    *obs.Counter
	ticksSkipped  *obs.Counter

	txDatagrams *obs.Counter
	txBytes     *obs.Counter
	txErrors    *obs.Counter
	txDropped   *obs.Counter
	txBursts    *obs.Counter
	txOversize  *obs.Counter
}

func newMultiObs(reg *obs.Registry) *multiObs {
	if reg == nil {
		return nil
	}
	return &multiObs{
		recvDatagrams: reg.Counter("topics_recv_datagrams_total"),
		recvBytes:     reg.Counter("topics_recv_bytes_total"),
		dropEnvelope:  reg.Counter("topics_drop_envelope_total"),
		dropGroup:     reg.Counter("topics_drop_group_total"),
		dropBadSrc:    reg.Counter("topics_drop_badsrc_total"),
		dropDecode:    reg.Counter("topics_drop_decode_total"),
		dropOversize:  reg.Counter("topics_drop_oversize_total"),
		dropReadErr:   reg.Counter("topics_drop_readerr_total"),
		shardDrops:    reg.Counter("topics_shard_dropped_total"),
		ticksSkipped:  reg.Counter("topics_ticks_skipped_total"),
		txDatagrams:   reg.Counter("topics_send_datagrams_total"),
		txBytes:       reg.Counter("topics_send_bytes_total"),
		txErrors:      reg.Counter("topics_send_errors_total"),
		txDropped:     reg.Counter("topics_send_dropped_total"),
		txBursts:      reg.Counter("topics_send_bursts_total"),
		txOversize:    reg.Counter("topics_send_oversize_total"),
	}
}

// checkSize rejects a frame no receiver would accept, at the sender where
// the operator can act on it.
func (m *MultiNode) checkSize(frame []byte, pdu wire.PDU) bool {
	if len(frame) <= rt.MaxDatagram {
		return true
	}
	if m.mobs != nil {
		m.mobs.txOversize.Inc()
	}
	m.warn.Warnf("oversize %v frame (%d bytes > %d): dropped before send", pdu.Kind(), len(frame), rt.MaxDatagram)
	return false
}

// groupTransport frames one group's PDUs with the group-id envelope and
// hands them to the shared sender. Runs on the group's shard goroutine.
type groupTransport struct{ s *session }

func (t groupTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	m := t.s.m
	if dst == m.cfg.Self || dst < 0 || int(dst) >= m.cfg.N {
		return
	}
	frame, err := wire.MarshalFrame(t.s.group, m.cfg.Self, pdu)
	if err != nil || !m.checkSize(frame, pdu) {
		if err == nil {
			m.cfg.Capture.Record(capture.DirEgress, t.s.group, dst, capture.DropOversize, 0, nil)
		}
		wire.PutBuf(frame)
		return
	}
	// DropFrame partitions individual groups in tests; the capture record
	// charges the loss as an injected partition so replay can attribute it.
	if m.cfg.DropFrame != nil && m.cfg.DropFrame(t.s.group, m.cfg.Self, dst) {
		m.cfg.Capture.Record(capture.DirEgress, t.s.group, dst, capture.FaultDrop,
			faultrt.KindSet(0).With(faultrt.KindPartition), t.body(frame))
		wire.PutBuf(frame)
		return
	}
	m.cfg.Capture.Record(capture.DirEgress, t.s.group, dst, capture.Sent, 0, t.body(frame))
	m.tx.push(txPacket{dst: dst, frame: frame})
}

// body strips the group envelope off a framed datagram: capture records
// store the PDU body only, with the envelope's group and peer as fields.
func (t groupTransport) body(frame []byte) []byte {
	return frame[wire.EnvelopeSize(t.s.group):]
}

// Broadcast marshals the PDU exactly once; every destination's packet
// shares the same refcounted buffer, released after the last write.
func (t groupTransport) Broadcast(pdu wire.PDU) {
	m := t.s.m
	frame, err := wire.MarshalFrame(t.s.group, m.cfg.Self, pdu)
	if err != nil || !m.checkSize(frame, pdu) {
		if err == nil {
			m.cfg.Capture.Record(capture.DirEgress, t.s.group, mid.None, capture.DropOversize, 0, nil)
		}
		wire.PutBuf(frame)
		return
	}
	m.cfg.Capture.Record(capture.DirEgress, t.s.group, mid.None, capture.Sent, 0, t.body(frame))
	sh := rt.NewSharedBuf(frame) // the sender's own hold, released after the fan-out
	for i := 0; i < m.cfg.N; i++ {
		dst := mid.ProcID(i)
		if dst == m.cfg.Self {
			continue
		}
		if m.cfg.DropFrame != nil && m.cfg.DropFrame(t.s.group, m.cfg.Self, dst) {
			m.cfg.Capture.Record(capture.DirEgress, t.s.group, dst, capture.FaultDrop,
				faultrt.KindSet(0).With(faultrt.KindPartition), t.body(frame))
			continue
		}
		sh.Hold()
		m.tx.push(txPacket{dst: dst, frame: frame, sh: sh})
	}
	sh.Release()
}

// txPacket is one outgoing datagram in the shared sender's queue. A nil sh
// means the queue owns frame outright; otherwise the packet holds one
// reference on the shared buffer.
type txPacket struct {
	dst   mid.ProcID
	frame []byte
	sh    *rt.SharedBuf
}

func (p txPacket) done() {
	if p.sh != nil {
		p.sh.Release()
	} else {
		wire.PutBuf(p.frame)
	}
}

// txBurstMax is how many queued datagrams one sendmmsg may carry. It also
// bounds how much the shared sender drains per wakeup on the fallback path.
const txBurstMax = 16

// txSender is the shared outgoing path: every group's shard loops feed it
// framed datagrams through one bounded queue, and it ships them in
// mixed-group, mixed-destination sendmmsg bursts (single writes where the
// platform or kernel lacks the syscall). A full queue drops the datagram —
// an omission the protocol repairs — so shard loops never block on the
// socket.
type txSender struct {
	m     *MultiNode
	ch    chan txPacket
	burst *rt.BurstSender // nil where sendmmsg is unavailable
	batch []txPacket
}

func newTxSender(m *MultiNode) *txSender {
	return &txSender{
		m:     m,
		ch:    make(chan txPacket, m.cfg.TxDepth),
		burst: rt.NewBurstSender(m.conn, m.peers, txBurstMax),
		batch: make([]txPacket, 0, txBurstMax),
	}
}

// push queues one datagram for the shared sender. Never blocks: a full
// queue drops the datagram and releases its buffer.
func (t *txSender) push(p txPacket) {
	select {
	case t.ch <- p:
	default:
		p.done()
		if t.m.mobs != nil {
			t.m.mobs.txDropped.Inc()
		}
	}
}

func (t *txSender) loop() {
	for {
		var p txPacket
		select {
		case <-t.m.stopCh:
			t.drain()
			return
		case p = <-t.ch:
		}
		t.batch = append(t.batch[:0], p)
	fill:
		for len(t.batch) < txBurstMax {
			select {
			case q := <-t.ch:
				t.batch = append(t.batch, q)
			default:
				break fill
			}
		}
		t.ship(t.batch)
	}
}

// ship writes one drained batch: a multi-destination sendmmsg burst when
// available, per-datagram writes otherwise. Buffers release afterwards.
func (t *txSender) ship(batch []txPacket) {
	if !t.shipBurst(batch) {
		for _, p := range batch {
			t.m.writeOne(p.dst, p.frame)
		}
	}
	for _, p := range batch {
		p.done()
	}
}

// shipBurst ships the whole batch, each datagram to its own destination, in
// one sendmmsg with full accounting. It reports false when the caller should
// write per datagram instead.
func (t *txSender) shipBurst(batch []txPacket) bool {
	if !t.burst.Usable(len(batch)) {
		return false
	}
	bytes := 0
	for i, p := range batch {
		bytes += len(p.frame)
		t.burst.Queue(i, p.dst, p.frame)
	}
	sent, errs, ok := t.burst.Send(len(batch))
	if ok && t.m.mobs != nil {
		t.m.mobs.txDatagrams.Add(int64(sent))
		t.m.mobs.txBytes.Add(int64(bytes))
		t.m.mobs.txErrors.Add(int64(errs))
		t.m.mobs.txBursts.Inc()
	}
	return ok
}

// drain releases whatever was still queued at shutdown.
func (t *txSender) drain() {
	for {
		select {
		case p := <-t.ch:
			p.done()
		default:
			return
		}
	}
}

// writeOne ships one datagram with a classic write and accounts for it.
func (m *MultiNode) writeOne(dst mid.ProcID, frame []byte) {
	if _, err := m.conn.WriteToUDP(frame, m.peers[dst]); err != nil {
		// Loss is an omission the protocol repairs; count it anyway.
		if m.mobs != nil {
			m.mobs.txErrors.Inc()
		}
		return
	}
	if m.mobs != nil {
		m.mobs.txDatagrams.Inc()
		m.mobs.txBytes.Add(int64(len(frame)))
	}
}
