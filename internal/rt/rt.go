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
	c := &Cluster{cfg: cfg, stopCh: make(chan struct{})}
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
			n.loop()
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
	done := make(chan struct{})
	if err := n.enqueueWait(ctx, func() {
		n.proc = p
		close(done)
	}); err != nil {
		return err
	}
	select {
	case <-done:
	case <-c.stopCh:
		return errClusterStopped
	case <-ctx.Done():
		return ctx.Err()
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
	round := 0
	for {
		start := time.Now()
		r := round
		round++
		dones := make([]chan struct{}, len(c.nodes))
		for i, n := range c.nodes {
			n := n
			if c.cfg.Fault.Crashed(n.id) {
				n.Kill()
			}
			n.obs.SampleInbox(len(n.inbox))
			done := make(chan struct{})
			dones[i] = done
			select {
			case n.inbox <- func() {
				if !n.Killed() {
					n.obs.MarkRound(r)
					n.proc.StartRound(r)
				}
				close(done)
			}:
			case <-c.stopCh:
				return
			}
		}
		for _, done := range dones {
			select {
			case <-done:
			case <-c.stopCh:
				return
			}
		}
		if rounds != nil {
			rounds.Inc()
			barrier.ObserveSince(start)
		}
		if rest := c.cfg.RoundDuration - time.Since(start); rest > 0 {
			select {
			case <-time.After(rest):
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

	inbox chan func()
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
		inbox: make(chan func(), c.cfg.InboxDepth),
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
		n.coal = NewCoalescer(c.cfg.BatchWindow, c.cfg.BatchMax, c.cfg.BatchBytes,
			func(fn func()) error { return n.enqueueWait(context.Background(), fn) },
			n.submit, n.obs.Coalesced)
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

// enqueue hands a closure to the node goroutine; a full inbox drops it
// (datagram semantics). It reports whether the closure was accepted.
func (n *Node) enqueue(fn func()) bool {
	select {
	case n.inbox <- fn:
		return true
	default:
		n.mu.Lock()
		n.dropped++
		n.mu.Unlock()
		n.obs.InboxDropped(n.id)
		return false
	}
}

// enqueueWait hands a closure to the node goroutine, blocking while the
// inbox is full — user commands are not datagrams and must not be lost.
func (n *Node) enqueueWait(ctx context.Context, fn func()) error {
	select {
	case n.inbox <- fn:
		return nil
	case <-n.c.stopCh:
		return errClusterStopped
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (n *Node) loop() {
	for {
		select {
		case <-n.c.stopCh:
			return
		case fn := <-n.inbox:
			fn()
		}
	}
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
	return n.send(ctx, payload, deps, false)
}

// SendCausal is Send with the conservative depend-on-everything-seen
// labelling computed inside the node goroutine.
func (n *Node) SendCausal(ctx context.Context, payload []byte) (mid.MID, error) {
	return n.send(ctx, payload, nil, true)
}

// submit runs queued submissions. Loop goroutine only. A scheduled crash
// takes effect here as well as at the round tick: a message submitted after
// the crash instant would otherwise leave (and be processed locally) on
// submit, before the tick that fail-stops the member.
func (n *Node) submit(batch ...*Submission) {
	if n.c.cfg.Fault.Crashed(n.id) {
		n.Kill()
	}
	if n.Killed() {
		failAll(batch, fmt.Errorf("rt: member %d is fail-stopped", n.id))
		return
	}
	n.conf.Submit(n.proc, n.obs, batch...)
}

func (n *Node) send(ctx context.Context, payload []byte, deps mid.DepList, causal bool) (mid.MID, error) {
	s := NewSubmission(payload, deps, causal)
	if n.coal != nil {
		n.coal.Add(s)
	} else if err := n.enqueueWait(ctx, func() { n.submit(s) }); err != nil {
		return mid.MID{}, err
	}
	return n.conf.Await(ctx, n.c.stopCh, errClusterStopped, n.obs, s)
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
	done := make(chan struct{})
	if err := n.enqueueWait(ctx, func() {
		fn(n.proc)
		close(done)
	}); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// meshTransport carries PDUs between in-process nodes through the wire
// codec, byte-for-byte as a real datagram network would.
type meshTransport struct {
	n *Node
}

// sharedBuf is a pooled wire buffer fanned out to several receivers: the
// last reference released returns it to the wire pool. Receivers decode
// concurrently, which is safe because reads of the shared bytes are
// read-only and Unmarshal never aliases its input.
type sharedBuf struct {
	buf  []byte
	refs atomic.Int32
}

func (s *sharedBuf) release() {
	if s.refs.Add(-1) == 0 {
		wire.PutBuf(s.buf)
	}
}

func (t meshTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	if dst == t.n.id || dst < 0 || int(dst) >= t.n.c.N() {
		return
	}
	buf, err := wire.MarshalAppend(wire.GetBuf(pdu.EncodedSize()), pdu)
	if err != nil {
		wire.PutBuf(buf)
		return // unencodable PDUs never leave the node
	}
	if t.n.Killed() {
		wire.PutBuf(buf)
		return // a crashed site emits nothing
	}
	if act := t.n.c.cfg.Fault.Send(t.n.id, dst); act.Faulty() {
		t.n.cap.Record(capture.DirEgress, 0, dst, capture.Classify(capture.Sent, act), act.Kinds, buf)
		if act.Drop {
			wire.PutBuf(buf)
			return
		}
		sh := &sharedBuf{buf: buf}
		sh.refs.Store(1)
		t.fanout(t.n.c.nodes[dst], buf, sh, act)
		sh.release()
		return
	}
	t.n.cap.Record(capture.DirEgress, 0, dst, capture.Sent, 0, buf)
	if !t.deliver(t.n.c.nodes[dst], buf, nil) {
		wire.PutBuf(buf)
	}
}

// fanout hands one destination its copies of a datagram: 1+Dup copies,
// each optionally delayed. Every copy takes its own reference on sh;
// refused copies release immediately, delayed copies hold theirs until the
// timer delivers. With a zero Action this is exactly one immediate copy.
func (t meshTransport) fanout(target *Node, buf []byte, sh *sharedBuf, act faultrt.Action) {
	for c := 0; c <= act.Dup; c++ {
		sh.refs.Add(1)
		if act.Delay > 0 {
			time.AfterFunc(act.Delay, func() {
				if !t.deliver(target, buf, sh) {
					sh.release()
				}
			})
			continue
		}
		if !t.deliver(target, buf, sh) {
			sh.release()
		}
	}
}

// Broadcast marshals the PDU exactly once and fans the same byte slice out
// to every peer; each receiver decodes its own self-owned PDU from the
// shared bytes.
func (t meshTransport) Broadcast(pdu wire.PDU) {
	if t.n.Killed() {
		return // a crashed site emits nothing
	}
	buf, err := wire.MarshalAppend(wire.GetBuf(pdu.EncodedSize()), pdu)
	if err != nil {
		wire.PutBuf(buf)
		return
	}
	t.n.cap.Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, buf)
	sh := &sharedBuf{buf: buf}
	sh.refs.Store(1) // the sender's own hold, released after the fan-out
	for i := 0; i < t.n.c.N(); i++ {
		dst := mid.ProcID(i)
		if dst == t.n.id {
			continue
		}
		act := t.n.c.cfg.Fault.Send(t.n.id, dst)
		if act.Faulty() {
			t.n.cap.Record(capture.DirEgress, 0, dst, capture.Classify(capture.Sent, act), act.Kinds, buf)
		}
		if act.Drop {
			continue
		}
		t.fanout(t.n.c.nodes[dst], buf, sh, act)
	}
	sh.release()
}

// deliver enqueues buf for decoding on the target's loop goroutine. When sh
// is non-nil the receiver releases its reference after decoding; otherwise
// the receiver owns buf and returns it to the pool itself. Reports whether
// the datagram was accepted (a full inbox drops it).
func (t meshTransport) deliver(target *Node, buf []byte, sh *sharedBuf) bool {
	src := t.n.id
	accepted := target.enqueue(func() {
		act := target.c.cfg.Fault.Recv(src, target.id)
		if act.Drop || target.Killed() {
			if target.cap != nil {
				kinds := act.Kinds
				if !act.Drop {
					// Absorbed by a fail-stopped receiver, not an injector.
					kinds = kinds.With(faultrt.KindCrash)
				}
				target.cap.Record(capture.DirIngress, 0, src, capture.FaultDrop, kinds, buf)
			}
			if sh != nil {
				sh.release()
			} else {
				wire.PutBuf(buf)
			}
			return // dropped at receive; a crashed site absorbs nothing
		}
		decoded, err := wire.Unmarshal(buf)
		// Receive-side duplicates each decode their own self-owned PDU
		// from the shared bytes before those go back to the pool.
		var extra []wire.PDU
		for i := 0; i < act.Dup && err == nil; i++ {
			d, derr := wire.Unmarshal(buf)
			if derr != nil {
				break
			}
			extra = append(extra, d)
		}
		if target.cap != nil {
			v := capture.Classify(capture.Delivered, act)
			if err != nil {
				v = capture.DropDecode
			}
			target.cap.Record(capture.DirIngress, 0, src, v, act.Kinds, buf)
		}
		if sh != nil {
			sh.release()
		} else {
			wire.PutBuf(buf)
		}
		if err != nil {
			return // undecodable dropped
		}
		if act.Delay > 0 {
			time.AfterFunc(act.Delay, func() {
				target.enqueue(func() {
					if target.Killed() {
						return
					}
					target.proc.Recv(src, decoded)
					for _, d := range extra {
						target.proc.Recv(src, d)
					}
				})
			})
			return
		}
		target.proc.Recv(src, decoded)
		for _, d := range extra {
			target.proc.Recv(src, d)
		}
	})
	if !accepted {
		target.cap.Record(capture.DirIngress, 0, src, capture.DropInbox, 0, buf)
	}
	return accepted
}
