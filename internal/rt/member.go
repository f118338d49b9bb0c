package rt

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// Member is one member of every group it hosts, and the whole live runtime:
// G sessions (one protocol entity each) on S shard loops over one link —
// real UDP sockets, or the in-process hand-off of a Mesh. A single-group
// member is the same engine with G = 1 and S = 1; rt.Node, rt.UDPNode and
// topics.MultiNode are views of it. All exported methods are safe from any
// goroutine.
type Member struct {
	cfg      Config
	sessions []*session
	shards   []*shard
	cap      *capture.Ring // nil disables frame capture
	sock     *sockObs      // nil disables link-level accounting
	warn     warner

	udp  *udpLink // the socket link; nil on a Mesh member
	mesh *Mesh    // the in-process link; nil on a socket member

	// killed fail-stops the member: it neither ticks, sends nor receives,
	// like a crashed site, until a Mesh restarts it.
	killed atomic.Bool

	// ticks, when set, replaces the free-running clock's ticker: tests inject
	// a source that loses ticks, as a stalled host does, or one that stamps
	// its ticks ahead of time and so paces the rounds itself.
	ticks func(time.Duration) (<-chan time.Time, func())

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// shard is one loop goroutine owning the protocol entities of every group
// hashed onto it, preserving core.Process's single-owner contract, plus what
// only that goroutine touches when it sends.
type shard struct {
	*inbox
	burst *burstSender // nil where sendmmsg is unavailable, and on a Mesh
	out   outbox       // a socket member's frames not yet sent, per peer
}

// session is one group's protocol entity plus its user-facing plumbing:
// confirm waiters, indication stream, coalescing sender, labeled metrics. It
// is the core.Transport of its process and the receiver of its shard's
// events; everything but the user API runs on the shard goroutine.
type session struct {
	m      *Member
	group  uint32
	shard  *shard
	proc   *core.Process
	obs    *nodeObs
	tracer *lifecycle.Tracer // nil unless Config.Lifecycle is set
	coal   *coalescer        // nil unless BatchWindow is set
	conf   confirms          // confirm waiters, leave record, the submit step
	ind    *stream           // the urcgc-data.Ind stream
}

// NewMember binds the member's socket and prepares every group's protocol
// entity. Start launches the runtime; Stop halts it.
func NewMember(cfg Config) (*Member, error) {
	cfg.fill(false)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Peers) != cfg.N {
		return nil, fmt.Errorf("rt: %d peers for group of %d", len(cfg.Peers), cfg.N)
	}
	if cfg.Self < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("rt: self %d outside group", cfg.Self)
	}
	link, err := newUDPLink(cfg)
	if err != nil {
		return nil, err
	}
	m := newMember(cfg)
	m.udp = link
	for _, sh := range m.shards {
		sh.burst = newBurstSender(link.conn, link.peers)
		sh.out = newOutbox(cfg.N)
	}
	if err := m.initSessions(); err != nil {
		link.conn.Close()
		return nil, err
	}
	return m, nil
}

// newMember builds the link-independent part of a member: shards, accounting,
// warnings. cfg is filled and valid.
func newMember(cfg Config) *Member {
	m := &Member{
		cfg:    cfg,
		sock:   newSockObs(cfg.Metrics),
		stopCh: make(chan struct{}),
	}
	if int(cfg.Self) < len(cfg.Captures) {
		m.cap = cfg.Captures[cfg.Self]
	}
	m.warn = warner{logf: cfg.Logf, prefix: fmt.Sprintf("topics[%d]: ", cfg.Self), captured: m.cap != nil}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i] = &shard{inbox: newInbox(cfg.InboxDepth, m.stopCh)}
	}
	return m
}

// initSessions builds one protocol entity per group, each on its shard.
func (m *Member) initSessions() error {
	m.sessions = make([]*session, m.cfg.Groups)
	for g := range m.sessions {
		s := &session{
			m:     m,
			group: uint32(g),
			shard: m.shards[g%len(m.shards)],
			ind:   newStream(m.cfg.IndicationDepth, m.stopCh, &m.wg),
		}
		s.obs = newNodeObs(m.cfg.Metrics, m.cfg.Self, m.cfg.N, g)
		if m.cfg.Lifecycle != nil {
			s.tracer = m.newTracer(g)
		}
		p, err := s.makeProc(false)
		if err != nil {
			return fmt.Errorf("rt: group %d: %w", g, err)
		}
		s.proc = p
		if m.cfg.BatchWindow > 0 {
			s.coal = newCoalescer(m.cfg.BatchWindow, m.cfg.BatchMax, core.DefaultBatchBytes, s.shard.inbox, s, s.obs.Coalesced)
		}
		m.sessions[g] = s
	}
	return nil
}

// newTracer builds group g's lifecycle tracer. The stuck-span watchdog blames
// the injected fault when there is an injector to ask, else names the group
// and the shard loop it shares.
func (m *Member) newTracer(g int) *lifecycle.Tracer {
	opts := *m.cfg.Lifecycle
	switch {
	case opts.Blame != nil:
	case m.cfg.Fault != nil:
		opts.Blame = m.cfg.Fault.Blame
	default:
		shardIdx, shards := g%len(m.shards), len(m.shards)
		opts.Blame = func([]mid.MID) string {
			return fmt.Sprintf("group %d on shard %d/%d", g, shardIdx, shards)
		}
	}
	return lifecycle.New(m.cfg.Self, m.cfg.N, uint32(g), opts, m.cfg.Metrics)
}

// makeProc builds the session's protocol entity — founding, or joining a
// running group — with its callbacks: confirm, indication fan-out with
// drop-on-full and leave, then tracing and the host's Observe hooks chained
// on. Metrics take no hook: publish reads the process after each event. The
// one place a core.Process is made for a live runtime.
func (s *session) makeProc(join bool) (*core.Process, error) {
	m, cfg := s.m, &s.m.cfg
	pc := cfg.Config
	pc.Join = pc.Join || join
	cb := core.Callbacks{
		OnProcess: func(msg *causal.Message) {
			if msg.ID.Proc == cfg.Self {
				s.conf.Processed(msg.ID)
			}
			if !s.ind.push(Indication{Msg: *msg}) { // slow consumer: dropped, like a full SAP queue
				s.obs.IndicationDropped()
			}
		},
		OnLeave: s.conf.Leave,
	}
	cb = core.Chain(cb, lifecycleCallbacks(s.tracer))
	if cfg.Observe != nil {
		cb = core.Chain(cb, cfg.Observe(cfg.Self, s.group))
	}
	p, err := core.NewProcess(m.cfg.Self, pc, s, cb)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Start launches the shard loops and, on a socket member, the reader and the
// round clock. Mesh members are started and clocked by their Mesh.
func (m *Member) Start() {
	for _, sh := range m.shards {
		m.wg.Add(1)
		go func() { defer m.wg.Done(); sh.loop(m) }()
	}
	if m.udp != nil {
		clk := newClock([]*Member{m}, nil, m.stopCh)
		m.wg.Add(2)
		go func() { defer m.wg.Done(); m.reader() }()
		go func() { defer m.wg.Done(); clk.run() }()
	}
}

// Stop halts every group and closes the socket. Submissions still pending
// inside any group's open coalescer window are failed, never leaked, and so
// are the frames a shard loop queued and had not sent when it stopped.
func (m *Member) Stop() {
	m.stopOnce.Do(func() {
		close(m.stopCh)
		if m.udp != nil {
			m.udp.conn.Close()
		}
		for _, s := range m.sessions {
			s.coal.Stop()
		}
		m.wg.Wait()
		for _, sh := range m.shards {
			sh.out.drop() // the loops have exited: nobody else touches them
		}
	})
}

// ID returns the member identifier.
func (m *Member) ID() mid.ProcID { return m.cfg.Self }

// Groups returns how many groups this member hosts.
func (m *Member) Groups() int { return len(m.sessions) }

// Shards returns how many shard loops carry them.
func (m *Member) Shards() int { return len(m.shards) }

// LocalAddr returns the bound UDP address (useful with port 0 in tests), or
// nil on a Mesh member or when the address is unavailable — a closed socket
// reports a nil address, and a status probe must not panic on it.
func (m *Member) LocalAddr() *net.UDPAddr {
	if m.udp == nil {
		return nil
	}
	addr, _ := m.udp.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// Kill fail-stops the member: from now on it neither ticks nor receives,
// exactly like a crashed site. The rest of the group will detect the silence
// and exclude it. Used by the fault-injection examples and tests.
func (m *Member) Kill() { m.killed.Store(true) }

// Killed reports whether the member was fail-stopped.
func (m *Member) Killed() bool { return m.killed.Load() }

func (m *Member) session(group uint32) (*session, error) {
	if int64(group) >= int64(len(m.sessions)) {
		return nil, fmt.Errorf("rt: group %d outside [0,%d)", group, len(m.sessions))
	}
	return m.sessions[group], nil
}

// Send implements the urcgc-data.Rq/Conf primitive pair on one group: it
// submits the payload with the given explicit cross-sequence dependencies
// and blocks until the message has been processed locally (the Confirm), or
// the context ends. With BatchWindow set, concurrent Sends coalesce into
// DataBatch frames; each still waits for its own confirm.
func (m *Member) Send(ctx context.Context, group uint32, payload []byte, deps mid.DepList) (mid.MID, error) {
	s, err := m.session(group)
	if err != nil {
		return mid.MID{}, err
	}
	return s.conf.Send(ctx, s, payload, deps, false)
}

// SendCausal is Send with the conservative depend-on-everything-seen
// labelling computed inside the owning shard.
func (m *Member) SendCausal(ctx context.Context, group uint32, payload []byte) (mid.MID, error) {
	s, err := m.session(group)
	if err != nil {
		return mid.MID{}, err
	}
	return s.conf.Send(ctx, s, payload, nil, true)
}

// Indications returns one group's urcgc-data.Ind stream: every message
// processed at this member in that group, in causal order.
func (m *Member) Indications(group uint32) (<-chan Indication, error) {
	s, err := m.session(group)
	if err != nil {
		return nil, err
	}
	return s.ind.ch, nil
}

// Left reports whether and why this member halted itself in one group.
// Groups leave independently: an exclusion in one does not touch the others.
func (m *Member) Left(group uint32) (core.LeaveReason, bool) {
	s, err := m.session(group)
	if err != nil {
		return 0, false
	}
	return s.conf.Left()
}

// Snapshot runs fn on the shard goroutine that owns one group's protocol
// entity, and waits for it. The core.Process accessors are
// loop-goroutine-only; fn runs on that goroutine, so they may be called
// freely inside it, but nothing reached through p (views, vectors, history)
// may be retained after fn returns without cloning. For the common fields,
// GroupStatus packages a cloned, race-free sample.
func (m *Member) Snapshot(ctx context.Context, group uint32, fn func(p *core.Process)) error {
	s, err := m.session(group)
	if err != nil {
		return err
	}
	return s.shard.call(ctx, func() { fn(s.proc) })
}

// GroupStatus captures a race-free sample of one group's protocol state.
func (m *Member) GroupStatus(ctx context.Context, group uint32) (Status, error) {
	var st Status
	err := m.Snapshot(ctx, group, func(p *core.Process) { st = statusOf(group, p) })
	return st, err
}

// Status samples every hosted group, in group order: the document /status
// serves. Each group is sampled on its own shard loop, so the groups are
// each consistent but not mutually simultaneous.
func (m *Member) Status(ctx context.Context) (NodeStatus, error) {
	st := NodeStatus{ID: m.ID(), N: m.cfg.N, K: m.cfg.K, Groups: make([]Status, len(m.sessions))}
	for g := range m.sessions {
		var err error
		if st.Groups[g], err = m.GroupStatus(ctx, uint32(g)); err != nil {
			return st, err
		}
	}
	return st, nil
}

// Lifecycle returns one group's span tracer, or nil when tracing is disabled
// or the group is not hosted. A nil tracer is a no-op receiver, so callers
// may use the result unconditionally.
func (m *Member) Lifecycle(group uint32) *lifecycle.Tracer {
	s, err := m.session(group)
	if err != nil {
		return nil
	}
	return s.tracer
}

// Lifecycles returns the per-group span tracers indexed by group id, or nil
// when tracing is disabled.
func (m *Member) Lifecycles() []*lifecycle.Tracer {
	if m.cfg.Lifecycle == nil {
		return nil
	}
	out := make([]*lifecycle.Tracer, len(m.sessions))
	for g, s := range m.sessions {
		out[g] = s.tracer
	}
	return out
}

// The methods below are a session as its shard loop drives it.

// offer hands the shard loop an event for s; a full inbox drops it, like any
// datagram, and the drop is counted and traced. Reports whether it was
// accepted.
func (s *session) offer(e event) bool {
	e.to = s
	if s.shard.offer(e) {
		return true
	}
	s.obs.InboxDropped(s.m.cfg.Self)
	return false
}

// tick opens a round unless the member is fail-stopped, and under a lockstep
// clock always reports to the barrier: a crashed site must not stall it.
// Like every event, it ends by letting arrivals advance agreement. Each
// round is also the lifecycle watchdog's heartbeat (self-rate-limited).
func (s *session) tick(round int) {
	if !s.m.Killed() {
		s.proc.StartRound(round)
		s.proc.Advance()
		s.tracer.Tick()
	}
	if s.m.mesh != nil {
		s.m.mesh.tickDone <- struct{}{}
	}
}

// recv delivers a decoded PDU — which may be the report or the decision that
// lets agreement advance; a crashed site absorbs nothing.
func (s *session) recv(src mid.ProcID, pdu wire.PDU) {
	if !s.m.Killed() {
		s.proc.Recv(src, pdu)
		s.proc.Advance()
	}
}

// submit runs queued submissions. A scheduled crash takes effect here as
// well as at the round tick: a message submitted after the crash instant
// would otherwise leave (and be processed locally) on submit, before the
// tick that fail-stops the member.
func (s *session) submit(head *submission) {
	m := s.m
	if m.cfg.Fault.Crashed(m.cfg.Self) {
		m.Kill()
	}
	if m.Killed() {
		failAll(head, fmt.Errorf("rt: member %d is fail-stopped", m.cfg.Self))
		return
	}
	s.conf.Submit(s.proc, head, s.obs)
}

// drainWindow submits the session's open coalescer window inline once the
// protocol has nothing queued: the loop has just run an event for s, and
// whatever was waiting behind the outbox has left, so holding the window
// open would only wait out the timer. With a backlog queued the window stays
// open and keeps filling — it would only join the queue. Loop goroutine
// only; s has a coalescer.
func (s *session) drainWindow() {
	if s.proc.PendingSubmissions() > 0 {
		return
	}
	if head := s.coal.drain(); head != nil {
		s.submit(head)
	}
}
