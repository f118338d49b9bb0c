// Package rt runs the urcgc protocol in real time: one goroutine per group
// member, channel-based datagram transport, and wall-clock rounds. It is
// the non-simulated runtime behind the examples and the UDP node (the
// paper's "prototype over an Ethernet LAN" — Section 7).
//
// Every PDU crossing a node boundary goes through the wire codec, so the
// in-process mesh exercises exactly the bytes a real network would carry,
// and a full inbox drops the datagram — an omission the protocol recovers
// from by design.
package rt

import (
	"context"
	"fmt"
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
	"urcgc/internal/wire"
)

// Config configures a live cluster.
type Config struct {
	core.Config
	// RoundDuration is the wall-clock length of one protocol round. It
	// must comfortably exceed the in-process delivery time; the default
	// of 2ms is generous.
	RoundDuration time.Duration
	// BatchWindow enables the coalescing sender: Send/SendCausal calls
	// arriving within this window (or until the BatchMax / BatchBytes
	// budgets fill first) enter the node goroutine as one inbox event and
	// leave at one send opportunity as DataBatch frames. Zero disables
	// coalescing: every Send is its own inbox event and subruns carry at
	// most BatchMax messages. When set while BatchMax is zero, BatchMax
	// defaults to core.DefaultBatchMax so the batches actually drain.
	BatchWindow time.Duration
	// InboxDepth bounds each node's datagram queue; overflow drops, like
	// any datagram network. Default 4096.
	InboxDepth int
	// IndicationDepth bounds each session's indication queue. Default 4096.
	IndicationDepth int
	// Metrics, when non-nil, receives live counters, gauges and
	// histograms for every node (per-node series carry a node label) and
	// trace events for by-design omissions. Nil costs nothing.
	Metrics *obs.Registry
	// Lifecycle, when non-nil, enables per-message lifecycle tracing on
	// every node (spans readable via Node.Lifecycle, histograms fed into
	// Metrics when set). Nil keeps the hot path free of stage callbacks.
	Lifecycle *lifecycle.Options
	// Fault, when non-nil, consults a wall-clock fault injector at the
	// transport boundary: before each datagram leaves its sender, after it
	// reaches its receiver, and once per round to fail-stop scheduled
	// crashes. Nil costs one pointer check per datagram. When Lifecycle is
	// also set, stuck-span watchdog lines name the injected fault that
	// plausibly caused the stall.
	Fault *faultrt.Hook
	// JoinInstalled, when non-nil, fires on a restarted member's loop
	// goroutine the moment its new incarnation installs the sponsor's
	// state-transfer snapshot — before it processes anything. The chaos
	// harness rebaselines its invariant checker here.
	JoinInstalled func(node mid.ProcID, stable mid.SeqVector)
	// Joined, when non-nil, fires on the member's loop goroutine when a
	// restarted incarnation is re-admitted by a decision and resumes full
	// protocol participation.
	Joined func(node mid.ProcID)
	// FastForwarded, when non-nil, fires on the member's loop goroutine
	// when recovery tells it that of's sequence through to was purged as
	// uniformly stable, so its frontier skipped the gap instead of
	// processing it.
	FastForwarded func(node mid.ProcID, of mid.ProcID, to mid.Seq)
	// Captures, when non-nil, holds one flight recorder per member
	// (indexed by ProcID; nil entries and members past the slice length
	// are disabled): every frame crossing the mesh transport is recorded —
	// egress on the sender's ring with its send-side fault verdict,
	// ingress on the receiver's ring with its receive-side verdict — so a
	// soak's anomaly can be dumped and replayed offline by urcgc-replay.
	Captures []*capture.Ring
}

func (c *Config) fill() {
	if c.RoundDuration == 0 {
		c.RoundDuration = 2 * time.Millisecond
	}
	if c.BatchWindow > 0 && c.BatchMax == 0 {
		c.BatchMax = core.DefaultBatchMax
	}
	if c.InboxDepth == 0 {
		c.InboxDepth = 4096
	}
	if c.IndicationDepth == 0 {
		c.IndicationDepth = 4096
	}
}

var errClusterStopped = fmt.Errorf("rt: cluster stopped")

// Indication is the urcgc-data.Ind primitive: a message processed at this
// member, delivered in causal order.
type Indication struct {
	Msg causal.Message
}

// Cluster is an in-process group of live nodes.
type Cluster struct {
	cfg   Config
	nodes []*Node

	// tickDone is the lockstep clock's barrier: every node's Tick ends by
	// putting one token in (capacity N, so it never blocks a loop), and the
	// clock collects N of them before it opens the next round.
	tickDone chan struct{}

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewCluster builds (but does not start) a live group.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, stopCh: make(chan struct{}), tickDone: make(chan struct{}, cfg.N)}
	c.nodes = make([]*Node, cfg.N)
	for i := range c.nodes {
		c.nodes[i] = newNode(c, mid.ProcID(i))
	}
	for i := range c.nodes {
		if err := c.nodes[i].init(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Start launches every node goroutine and the round clock.
func (c *Cluster) Start() {
	for _, n := range c.nodes {
		n := n
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			n.inbox.Loop()
		}()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.clock()
	}()
}

// Stop halts the cluster and waits for every goroutine to exit. Any
// submissions still pending inside an open coalescer window are failed, so
// no Send is left waiting on a confirm that can never come.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		close(c.stopCh)
		for _, n := range c.nodes {
			n.coal.Stop()
		}
	})
	c.wg.Wait()
}

// Node returns member i.
func (c *Cluster) Node(i mid.ProcID) *Node { return c.nodes[i] }

// Restart revives member i as a joiner — the kill-and-restart experiment.
// The fresh incarnation solicits a live sponsor, installs the state
// transfer and re-enters the view through a decision; the suicide rule
// becomes "leave, resync, rejoin". The swap happens on the node's loop
// goroutine, so in-flight datagrams never see a half-built entity; the
// killed flag clears afterwards, which also means the caller must first
// make sure any Fault injector no longer reports the member crashed, or
// the next round tick re-kills it. Confirm waiters of the previous
// incarnation stay registered: a message the new incarnation recovers and
// processes confirms normally, one lost with the crash waits out its
// context — exactly a restarted client's uncertainty.
func (c *Cluster) Restart(ctx context.Context, i mid.ProcID) error {
	if i < 0 || int(i) >= c.N() {
		return fmt.Errorf("rt: restart of member %d outside group of %d", i, c.N())
	}
	n := c.nodes[i]
	p, err := n.makeProc(true)
	if err != nil {
		return err
	}
	if err := n.inbox.Call(ctx, func() { n.proc = p }); err != nil {
		return err
	}
	n.mu.Lock()
	n.killed = false
	n.mu.Unlock()
	n.conf.rejoined()
	return nil
}

// N returns the group cardinality.
func (c *Cluster) N() int { return c.cfg.N }

// clock drives rounds in lockstep: every node finishes round r before any
// node starts round r+1, and at least RoundDuration elapses per round. The
// barrier removes scheduler-starvation artifacts (a node ticking late looks
// like an omission-faulty process and would eventually be excluded); the
// UDP runtime, whose members run on separate machines, uses free-running
// clocks instead and relies on the protocol's omission recovery.
func (c *Cluster) clock() {
	var rounds *obs.Counter
	var barrier *obs.Histogram
	if c.cfg.Metrics != nil {
		rounds = c.cfg.Metrics.Counter("rt_rounds_total")
		barrier = c.cfg.Metrics.Histogram("rt_round_barrier_seconds", obs.DurationBuckets)
	}
	// One timer paces every round. It is only ever re-armed after its tick
	// was received, so its channel is empty at each Reset.
	pace := time.NewTimer(0)
	defer pace.Stop()
	<-pace.C
	for round := 0; ; round++ {
		start := time.Now()
		for _, n := range c.nodes {
			if c.cfg.Fault.Crashed(n.id) {
				n.Kill()
			}
			n.obs.SampleInbox(len(n.inbox.C))
			select {
			case n.inbox.C <- NewEvent(Event{Kind: EvTick, To: (*nodeHost)(n), Round: round}):
			case <-c.stopCh:
				return
			}
		}
		for range c.nodes {
			select {
			case <-c.tickDone:
			case <-c.stopCh:
				return
			}
		}
		if rounds != nil {
			rounds.Inc()
			barrier.ObserveSince(start)
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

// Node is one live group member: a core.Process owned by a single
// goroutine, fed ticks, datagrams and user commands through its inbox.
type Node struct {
	c      *Cluster
	id     mid.ProcID
	proc   *core.Process
	obs    *NodeObs
	tracer *lifecycle.Tracer
	coal   *Coalescer // nil unless BatchWindow is set

	inbox Inbox
	ind   chan Indication
	cap   *capture.Ring // nil disables frame capture

	conf Confirms // confirm waiters, leave record, the submit step

	mu      sync.Mutex
	killed  bool
	dropped int
}

func newNode(c *Cluster, id mid.ProcID) *Node {
	n := &Node{
		c:     c,
		id:    id,
		obs:   NewNodeObs(c.cfg.Metrics, id, c.cfg.N),
		inbox: NewInbox(c.cfg.InboxDepth, c.stopCh, errClusterStopped),
		ind:   make(chan Indication, c.cfg.IndicationDepth),
	}
	if int(id) < len(c.cfg.Captures) {
		n.cap = c.cfg.Captures[id]
	}
	if c.cfg.Lifecycle != nil {
		opts := *c.cfg.Lifecycle
		if opts.Blame == nil && c.cfg.Fault != nil {
			opts.Blame = c.cfg.Fault.Blame
		}
		n.tracer = lifecycle.New(id, c.cfg.N, opts, c.cfg.Metrics)
	}
	if c.cfg.BatchWindow > 0 {
		n.coal = NewCoalescer(c.cfg.BatchWindow, c.cfg.BatchMax, c.cfg.BatchBytes, &n.inbox, (*nodeHost)(n), n.obs.Coalesced)
	}
	return n
}

func (n *Node) init() error {
	p, err := n.makeProc(false)
	if err != nil {
		return err
	}
	n.proc = p
	return nil
}

// callbacks builds the node's protocol callbacks: indication fan-out,
// confirm waiters, leave bookkeeping, and the cluster-level join hooks.
func (n *Node) callbacks() core.Callbacks {
	return core.Callbacks{
		OnProcess: func(m *causal.Message) {
			n.conf.Processed(m.ID)
			select {
			case n.ind <- Indication{Msg: *m}:
			default: // slow consumer: indication dropped, like a full SAP queue
				n.obs.IndicationDropped()
			}
		},
		OnLeave: n.conf.Leave,
		OnJoinInstalled: func(stable mid.SeqVector) {
			if n.c.cfg.JoinInstalled != nil {
				n.c.cfg.JoinInstalled(n.id, stable)
			}
		},
		OnJoined: func() {
			if n.c.cfg.Joined != nil {
				n.c.cfg.Joined(n.id)
			}
		},
		OnFastForward: func(q mid.ProcID, to mid.Seq) {
			if n.c.cfg.FastForwarded != nil {
				n.c.cfg.FastForwarded(n.id, q, to)
			}
		},
	}
}

// makeProc builds a fresh protocol entity for this member slot, joining or
// founding.
func (n *Node) makeProc(join bool) (*core.Process, error) {
	cfg := n.c.cfg.Config
	cfg.Join = join
	p, err := core.NewProcess(n.id, cfg, meshTransport{n: n}, InstallLifecycle(n.tracer, n.obs.Install(n.callbacks())))
	if err != nil {
		return nil, err
	}
	n.obs.MarkJoining(join)
	return p, nil
}

// Lifecycle returns the node's message-lifecycle tracer, or nil when
// tracing is disabled. Safe from any goroutine.
func (n *Node) Lifecycle() *lifecycle.Tracer { return n.tracer }

// enqueue hands an event to the node goroutine; a full inbox drops it
// (datagram semantics). It reports whether the event was accepted.
func (n *Node) enqueue(e Event) bool {
	if n.inbox.Offer(e) {
		return true
	}
	n.mu.Lock()
	n.dropped++
	n.mu.Unlock()
	n.obs.InboxDropped(n.id)
	return false
}

// nodeHost is a Node as its loop goroutine drives it (the Host of its
// events), kept apart so none of this joins Node's public method set.
type nodeHost Node

// Tick opens a round unless the node is fail-stopped, and always reports to
// the clock's barrier: a crashed site must not stall the lockstep.
func (h *nodeHost) Tick(round int) {
	n := (*Node)(h)
	if !n.Killed() {
		n.obs.MarkRound(round)
		n.proc.StartRound(round)
	}
	n.c.tickDone <- struct{}{}
}

// Recv delivers a decoded PDU; a crashed site absorbs nothing.
func (h *nodeHost) Recv(src mid.ProcID, pdu wire.PDU) {
	if n := (*Node)(h); !n.Killed() {
		n.proc.Recv(src, pdu)
	}
}

// Submit runs queued submissions. A scheduled crash takes effect here as well
// as at the round tick: a message submitted after the crash instant would
// otherwise leave (and be processed locally) on submit, before the tick that
// fail-stops the member.
func (h *nodeHost) Submit(head *Submission) {
	n := (*Node)(h)
	if n.c.cfg.Fault.Crashed(n.id) {
		n.Kill()
	}
	if n.Killed() {
		failAll(head, fmt.Errorf("rt: member %d is fail-stopped", n.id))
		return
	}
	n.conf.Submit(n.proc, n.obs, head)
}

// Kill fail-stops the node: from now on it neither ticks nor receives,
// exactly like a crashed site. The rest of the group will detect the
// silence and exclude it. Used by the fault-injection examples and tests.
func (n *Node) Kill() {
	n.mu.Lock()
	n.killed = true
	n.mu.Unlock()
}

// Killed reports whether the node was fail-stopped.
func (n *Node) Killed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.killed
}

// ID returns the member identifier.
func (n *Node) ID() mid.ProcID { return n.id }

// Indications returns the urcgc-data.Ind stream: every message processed at
// this member, in causal order.
func (n *Node) Indications() <-chan Indication { return n.ind }

// Left returns the reason this member halted, if it has.
func (n *Node) Left() (core.LeaveReason, bool) { return n.conf.Left() }

// Send implements the urcgc-data.Rq/Conf primitive pair: it submits the
// payload with the given explicit cross-sequence dependencies and blocks
// until the message has been processed locally (the Confirm), or the
// context ends.
func (n *Node) Send(ctx context.Context, payload []byte, deps mid.DepList) (mid.MID, error) {
	return n.conf.Send(ctx, &n.inbox, n.coal, (*nodeHost)(n), n.obs, payload, deps, false)
}

// SendCausal is Send with the conservative depend-on-everything-seen
// labelling computed inside the node goroutine.
func (n *Node) SendCausal(ctx context.Context, payload []byte) (mid.MID, error) {
	return n.conf.Send(ctx, &n.inbox, n.coal, (*nodeHost)(n), n.obs, payload, nil, true)
}

// Dropped returns how many datagrams this node's inbox refused because it
// was full — omissions by design, which the protocol recovers from. Safe
// from any goroutine.
func (n *Node) Dropped() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// Snapshot runs fn inside the node goroutine with safe access to the
// protocol entity, and waits for it. Use it for reads (views, vectors).
// The core.Process accessors are loop-goroutine-only; fn runs on that
// goroutine, so accessors may be called freely inside it, but nothing
// reached through p (views, vectors, history) may be retained after fn
// returns without cloning. For the common fields, Status packages a
// cloned, race-free sample.
func (n *Node) Snapshot(ctx context.Context, fn func(p *core.Process)) error {
	return n.inbox.Call(ctx, func() { fn(n.proc) })
}

// meshTransport carries PDUs between in-process nodes through the wire
// codec, byte-for-byte as a real datagram network would.
type meshTransport struct {
	n *Node
}

// SharedBuf is a pooled wire buffer fanned out to several receivers: the
// last reference released returns it to the wire pool. Receivers decode
// concurrently, which is safe because reads of the shared bytes are
// read-only and Unmarshal never aliases its input. The multi-group runtime
// shares its broadcast frames across destinations the same way.
type SharedBuf struct {
	Buf  []byte
	refs atomic.Int32
}

// sharedBufs is the leaky free list of SharedBuf records — a channel, like
// wire.FreeList and for its reason: a record is taken on the sender's loop
// and released on a receiver's. 64 covers a round's frames in flight; past
// that a record is dropped for the collector.
var sharedBufs = make(chan *SharedBuf, 64)

// NewSharedBuf wraps buf with one reference: the creator's own hold.
func NewSharedBuf(buf []byte) *SharedBuf {
	var s *SharedBuf
	select {
	case s = <-sharedBufs:
	default:
		s = new(SharedBuf)
	}
	s.Buf = buf
	s.refs.Store(1)
	return s
}

// Hold takes one more reference.
func (s *SharedBuf) Hold() { s.refs.Add(1) }

// Release drops one reference; the last one pools the buffer and recycles
// the record, so no holder may touch s after its own Release.
func (s *SharedBuf) Release() {
	if s.refs.Add(-1) == 0 {
		wire.PutBuf(s.Buf)
		s.Buf = nil
		select {
		case sharedBufs <- s:
		default:
		}
	}
}

// frame marshals pdu into a pooled buffer under the sender's own hold, or
// returns nil for what never leaves the node: an unencodable PDU, or
// anything at all once the site has crashed.
func (t meshTransport) frame(pdu wire.PDU) *SharedBuf {
	if t.n.Killed() {
		return nil
	}
	buf, err := wire.MarshalAppend(wire.GetBuf(pdu.EncodedSize()), pdu)
	if err != nil {
		wire.PutBuf(buf)
		return nil
	}
	return NewSharedBuf(buf)
}

func (t meshTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	if dst == t.n.id || dst < 0 || int(dst) >= t.n.c.N() {
		return
	}
	sh := t.frame(pdu)
	if sh == nil {
		return
	}
	act := t.n.c.cfg.Fault.Send(t.n.id, dst)
	t.n.cap.Record(capture.DirEgress, 0, dst, capture.Classify(capture.Sent, act), act.Kinds, sh.Buf)
	if !act.Drop {
		t.fanout(t.n.c.nodes[dst], sh, act)
	}
	sh.Release()
}

// fanout hands one destination its copies of a datagram: 1+Dup copies,
// each optionally delayed. Every copy takes its own reference on sh;
// refused copies release immediately, delayed copies hold theirs until the
// timer delivers. With a zero Action this is exactly one immediate copy.
func (t meshTransport) fanout(target *Node, sh *SharedBuf, act faultrt.Action) {
	for c := 0; c <= act.Dup; c++ {
		sh.Hold()
		if act.Delay > 0 {
			time.AfterFunc(act.Delay, func() { t.deliver(target, sh) })
			continue
		}
		t.deliver(target, sh)
	}
}

// Broadcast marshals the PDU exactly once and fans the same byte slice out
// to every peer; each receiver decodes its own self-owned PDU from the
// shared bytes.
func (t meshTransport) Broadcast(pdu wire.PDU) {
	sh := t.frame(pdu)
	if sh == nil {
		return
	}
	t.n.cap.Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, sh.Buf)
	for i := 0; i < t.n.c.N(); i++ {
		dst := mid.ProcID(i)
		if dst == t.n.id {
			continue
		}
		act := t.n.c.cfg.Fault.Send(t.n.id, dst)
		if act.Faulty() {
			t.n.cap.Record(capture.DirEgress, 0, dst, capture.Classify(capture.Sent, act), act.Kinds, sh.Buf)
		}
		if act.Drop {
			continue
		}
		t.fanout(t.n.c.nodes[dst], sh, act)
	}
	sh.Release()
}

// deliver enqueues one held reference on sh for decoding on the target's
// loop goroutine, which releases it; a full inbox drops the datagram and the
// reference with it.
func (t meshTransport) deliver(target *Node, sh *SharedBuf) {
	if !target.enqueue(Event{Kind: evFrame, To: (*nodeHost)(target), Src: t.n.id, Frame: sh}) {
		target.cap.Record(capture.DirIngress, 0, t.n.id, capture.DropInbox, 0, sh.Buf)
		sh.Release()
	}
}

// recvFrame is the receiving end of the mesh: fault verdict, decode, capture
// and delivery of one datagram, on the receiver's loop goroutine.
func (h *nodeHost) recvFrame(src mid.ProcID, sh *SharedBuf) {
	target := (*Node)(h)
	act := target.c.cfg.Fault.Recv(src, target.id)
	if act.Drop || target.Killed() {
		if target.cap != nil {
			kinds := act.Kinds
			if !act.Drop {
				// Absorbed by a fail-stopped receiver, not an injector.
				kinds = kinds.With(faultrt.KindCrash)
			}
			target.cap.Record(capture.DirIngress, 0, src, capture.FaultDrop, kinds, sh.Buf)
		}
		sh.Release()
		return // dropped at receive; a crashed site absorbs nothing
	}
	// A control record comes from the loop's free list and goes back once
	// Recv is done with it — unless the fault hook holds the delivery across a
	// timer: that one decodes fresh and is never recycled.
	free := target.inbox.Free
	if act.Faulty() {
		free = nil
	}
	decoded, err := free.Unmarshal(sh.Buf)
	if target.cap != nil {
		v := capture.Classify(capture.Delivered, act)
		if err != nil {
			v = capture.DropDecode
		}
		target.cap.Record(capture.DirIngress, 0, src, v, act.Kinds, sh.Buf)
	}
	sh.Release()
	if err != nil {
		return // undecodable dropped
	}
	// A receive-side duplicate is the same PDU delivered again: Recv keeps
	// nothing of a control PDU, and of a data PDU's messages only the first
	// delivery keeps anything (the second finds them processed or waiting).
	if act.Delay > 0 {
		time.AfterFunc(act.Delay, func() {
			target.enqueue(Event{Call: func() {
				for c := 0; c <= act.Dup; c++ {
					h.Recv(src, decoded)
				}
			}})
		})
		return
	}
	for c := 0; c <= act.Dup; c++ {
		target.proc.Recv(src, decoded)
	}
	free.Put(decoded)
}
