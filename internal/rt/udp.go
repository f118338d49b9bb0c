package rt

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"sync"
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

// UDPConfig configures a group member running over real UDP sockets — the
// deployment the paper's concluding remarks describe as the prototype over
// an Ethernet LAN. Rounds are driven by each member's local clock; drift
// and reordering surface as omissions, which the protocol repairs from
// history, so no clock synchronization service is required.
type UDPConfig struct {
	core.Config
	// Self is this member's identity; Peers[Self] must be our bind address.
	Self mid.ProcID
	// Peers maps every ProcID to its UDP address, e.g. "10.0.0.7:7701".
	Peers []string
	// RoundDuration is the wall-clock round length. It must comfortably
	// exceed the LAN round-trip time; default 20ms.
	RoundDuration time.Duration
	// BatchWindow enables the coalescing sender: Send calls arriving
	// within this window (or until the BatchMax / BatchBytes budgets fill
	// first) enter the protocol loop as one event and leave at one send
	// opportunity as DataBatch frames. Zero disables coalescing. When set
	// while BatchMax is zero, BatchMax defaults to core.DefaultBatchMax.
	BatchWindow time.Duration
	// InboxDepth bounds the datagram queue (default 4096).
	InboxDepth int
	// IndicationDepth bounds the indication queue (default 4096).
	IndicationDepth int
	// Metrics, when non-nil, receives live counters, gauges and
	// histograms for this member plus socket-level send/recv/drop
	// accounting. Nil costs nothing.
	Metrics *obs.Registry
	// Lifecycle, when non-nil, enables per-message lifecycle tracing
	// (spans readable via Lifecycle(), stage histograms fed into Metrics
	// when set). Nil keeps the hot path free of stage callbacks.
	Lifecycle *lifecycle.Options
	// Logf receives throttled operator-visible warnings: malformed or
	// oversize datagrams, socket errors — omissions that would otherwise
	// be silently recovered and invisible. Nil means log.Printf.
	Logf func(format string, args ...any)
	// Fault, when non-nil, consults a wall-clock fault injector at this
	// member's socket boundary: before each datagram is written, after
	// each datagram is read and validated, and once per tick to fail-stop
	// a scheduled crash of Self. The hook is local — it sees only this
	// member's boundary, so a cluster-wide schedule needs the same seeded
	// schedule on every member. Nil costs one pointer check per datagram.
	Fault *faultrt.Hook
	// Capture, when non-nil, records every frame crossing the socket —
	// ingress with the reader's discard verdict, egress with the fault
	// verdict — into a bounded flight recorder served on /capture and
	// replayable offline by urcgc-replay. Nil costs one pointer check per
	// datagram and zero allocations.
	Capture *capture.Ring
	// Joined, when non-nil, fires on the protocol loop goroutine when a
	// member started with Config.Join set is re-admitted by a decision and
	// resumes full participation — the urcgc-node restart path logs it.
	Joined func()
}

func (c *UDPConfig) fill() {
	if c.RoundDuration == 0 {
		c.RoundDuration = 20 * time.Millisecond
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

// UDPNode is one live group member on a real network.
type UDPNode struct {
	cfg    UDPConfig
	proc   *core.Process
	conn   *net.UDPConn
	peers  []*net.UDPAddr
	obs    *NodeObs
	sock   *sockObs
	tracer *lifecycle.Tracer
	coal   *Coalescer   // nil unless BatchWindow is set
	mmsend *BurstSender // nil where sendmmsg is unavailable

	// burstScratch collects the clean-verdict destinations of one
	// Broadcast for the burst syscall. Loop goroutine only.
	burstScratch []mid.ProcID

	inbox Inbox
	ind   chan Indication

	conf Confirms // confirm waiters, leave record, the submit step

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	warn Warner
}

// Warner is a socket runtime's operator-visible warning line: malformed or
// oversize datagrams, socket errors, overload omissions — everything the
// protocol silently recovers from. Shared with internal/topics.
type Warner struct {
	Logf     func(format string, args ...any)
	Prefix   string // names the member, e.g. "rt[2]: "
	Captured bool   // frame capture is on: CapNote has something to point at
	th       obs.Throttle
}

// Warnf logs at a throttled rate (at most one line per second), appending
// how many similar warnings were suppressed in between so nothing is
// silently lost.
func (w *Warner) Warnf(format string, args ...any) {
	suppressed, ok := w.th.Allow()
	if !ok {
		return
	}
	if suppressed > 0 {
		format += fmt.Sprintf(" [+%d warnings suppressed]", suppressed)
	}
	w.Logf(w.Prefix+format, args...)
}

// CapNote renders the warn-line suffix joining a discard to its captured
// frame, so drop warnings are greppable against the /capture dump. Empty
// when capture is disabled.
func (w *Warner) CapNote(seq uint64) string {
	if !w.Captured {
		return ""
	}
	return fmt.Sprintf(" [capture #%d]", seq)
}

// sockObs accounts socket-level traffic and the reader's silent discards.
// A nil *sockObs disables the counters but not the throttled logging.
type sockObs struct {
	recvDatagrams *obs.Counter
	recvBytes     *obs.Counter
	sendDatagrams *obs.Counter
	sendBytes     *obs.Counter
	sendErrors    *obs.Counter
	sendOversize  *obs.Counter
	dropShort     *obs.Counter
	dropBadSrc    *obs.Counter
	dropDecode    *obs.Counter
	dropOversize  *obs.Counter
	dropReadErr   *obs.Counter
	ticksSkipped  *obs.Counter
}

func newSockObs(reg *obs.Registry) *sockObs {
	if reg == nil {
		return nil
	}
	return &sockObs{
		recvDatagrams: reg.Counter("udp_recv_datagrams_total"),
		recvBytes:     reg.Counter("udp_recv_bytes_total"),
		sendDatagrams: reg.Counter("udp_send_datagrams_total"),
		sendBytes:     reg.Counter("udp_send_bytes_total"),
		sendErrors:    reg.Counter("udp_send_errors_total"),
		sendOversize:  reg.Counter("udp_send_oversize_total"),
		dropShort:     reg.Counter("udp_drop_short_total"),
		dropBadSrc:    reg.Counter("udp_drop_badsrc_total"),
		dropDecode:    reg.Counter("udp_drop_decode_total"),
		dropOversize:  reg.Counter("udp_drop_oversize_total"),
		dropReadErr:   reg.Counter("udp_drop_readerr_total"),
		ticksSkipped:  reg.Counter("udp_ticks_skipped_total"),
	}
}

var errNodeStopped = fmt.Errorf("rt: node stopped")

// MaxDatagram bounds datagrams in both directions, for every socket runtime
// (a mixed deployment must agree on the limit). The urcgc PDUs for
// paper-scale groups fit comfortably; jumbo decisions for very large n would
// need fragmentation, which the paper delegates to the transport layer.
const MaxDatagram = 64 * 1024

// NewUDPNode binds the member's socket and prepares the protocol entity.
func NewUDPNode(cfg UDPConfig) (*UDPNode, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Peers) != cfg.N {
		return nil, fmt.Errorf("rt: %d peers for group of %d", len(cfg.Peers), cfg.N)
	}
	if cfg.Self < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("rt: self %d outside group", cfg.Self)
	}
	n := &UDPNode{
		cfg:    cfg,
		obs:    NewNodeObs(cfg.Metrics, cfg.Self, cfg.N),
		sock:   newSockObs(cfg.Metrics),
		ind:    make(chan Indication, cfg.IndicationDepth),
		stopCh: make(chan struct{}),
		peers:  make([]*net.UDPAddr, cfg.N),
	}
	n.inbox = NewInbox(cfg.InboxDepth, n.stopCh, errNodeStopped)
	if n.cfg.Logf == nil {
		n.cfg.Logf = log.Printf
	}
	n.warn = Warner{Logf: n.cfg.Logf, Prefix: fmt.Sprintf("rt[%d]: ", cfg.Self), Captured: cfg.Capture != nil}
	for i, p := range cfg.Peers {
		addr, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			return nil, fmt.Errorf("rt: peer %d %q: %w", i, p, err)
		}
		n.peers[i] = addr
	}
	conn, err := net.ListenUDP("udp", n.peers[cfg.Self])
	if err != nil {
		return nil, fmt.Errorf("rt: bind %q: %w", cfg.Peers[cfg.Self], err)
	}
	n.conn = conn
	cb := core.Callbacks{
		OnProcess: func(m *causal.Message) {
			n.conf.Processed(m.ID)
			select {
			case n.ind <- Indication{Msg: *m}:
			default: // slow consumer: indication dropped, like a full SAP queue
				n.obs.IndicationDropped()
			}
		},
		OnLeave: n.conf.Leave,
		OnJoined: func() {
			if cfg.Joined != nil {
				cfg.Joined()
			}
		},
	}
	if cfg.Lifecycle != nil {
		opts := *cfg.Lifecycle
		if opts.Blame == nil && cfg.Fault != nil {
			opts.Blame = cfg.Fault.Blame
		}
		n.tracer = lifecycle.New(cfg.Self, cfg.N, opts, cfg.Metrics)
	}
	proc, err := core.NewProcess(cfg.Self, cfg.Config, udpTransport{n: n}, InstallLifecycle(n.tracer, n.obs.Install(cb)))
	if err != nil {
		conn.Close()
		return nil, err
	}
	n.proc = proc
	n.obs.MarkJoining(cfg.Join)
	if cfg.BatchWindow > 0 {
		n.coal = NewCoalescer(cfg.BatchWindow, cfg.BatchMax, cfg.BatchBytes, &n.inbox, (*udpHost)(n), n.obs.Coalesced)
	}
	n.mmsend = NewBurstSender(conn, n.peers, cfg.N) // nil → single-syscall fallback
	n.burstScratch = make([]mid.ProcID, 0, cfg.N)
	return n, nil
}

// Lifecycle returns the member's message-lifecycle tracer, or nil when
// tracing is disabled. Safe from any goroutine.
func (n *UDPNode) Lifecycle() *lifecycle.Tracer { return n.tracer }

// LocalAddr returns the bound UDP address (useful with port 0 in tests), or
// nil when it is unavailable — a closed socket reports a nil address, and a
// wrapped conn may report a non-UDP one; a status probe must not panic on
// either, so the type assertion is checked.
func (n *UDPNode) LocalAddr() *net.UDPAddr {
	addr, _ := n.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// Start launches the reader, the round clock and the protocol loop.
func (n *UDPNode) Start() {
	n.wg.Add(3)
	go func() { defer n.wg.Done(); n.reader() }()
	go func() { defer n.wg.Done(); n.clock() }()
	go func() { defer n.wg.Done(); n.inbox.Loop() }()
}

// Stop halts the member and closes its socket. Any submissions still
// pending inside an open coalescer window are failed, so no Send is left
// waiting on a confirm that can never come.
func (n *UDPNode) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopCh)
		n.conn.Close()
		n.coal.Stop()
	})
	n.wg.Wait()
}

// Indications returns the urcgc-data.Ind stream.
func (n *UDPNode) Indications() <-chan Indication { return n.ind }

// Left reports whether and why the member halted itself.
func (n *UDPNode) Left() (core.LeaveReason, bool) { return n.conf.Left() }

// udpHost is a UDPNode as its loop goroutine drives it (the Host of its
// events), kept apart so none of this joins UDPNode's public method set.
type udpHost UDPNode

// Tick opens a round.
func (h *udpHost) Tick(round int) {
	h.obs.MarkRound(round)
	h.proc.StartRound(round)
}

// Recv delivers a decoded PDU.
func (h *udpHost) Recv(src mid.ProcID, pdu wire.PDU) { h.proc.Recv(src, pdu) }

// Submit runs queued submissions. A fail-stopped site (a scheduled crash of
// Self) stops ticking; it must not send on submit either.
func (h *udpHost) Submit(head *Submission) {
	if h.cfg.Fault.Crashed(h.cfg.Self) {
		failAll(head, fmt.Errorf("rt: member %d is fail-stopped", h.cfg.Self))
		return
	}
	h.conf.Submit(h.proc, h.obs, head)
}

// Send is the urcgc-data.Rq/Conf pair over UDP. With BatchWindow set,
// concurrent Sends coalesce into DataBatch frames; each still blocks until
// its own message is processed locally.
func (n *UDPNode) Send(ctx context.Context, payload []byte, deps mid.DepList) (mid.MID, error) {
	return n.conf.Send(ctx, &n.inbox, n.coal, (*udpHost)(n), n.obs, payload, deps, false)
}

// Snapshot runs fn with safe access to the protocol entity.
func (n *UDPNode) Snapshot(ctx context.Context, fn func(p *core.Process)) error {
	return n.inbox.Call(ctx, func() { fn(n.proc) })
}

func (n *UDPNode) clock() {
	t := time.NewTicker(n.cfg.RoundDuration)
	defer t.Stop()
	var rounds *obs.Counter
	if n.cfg.Metrics != nil {
		rounds = n.cfg.Metrics.Counter("rt_rounds_total")
	}
	round := 0
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			if n.cfg.Fault.Crashed(n.cfg.Self) {
				continue // fail-stopped: a crashed site stops ticking
			}
			r := round
			round++
			n.obs.SampleInbox(len(n.inbox.C))
			if n.inbox.Offer(Event{Kind: EvTick, To: (*udpHost)(n), Round: r}) {
				if rounds != nil {
					rounds.Inc()
				}
			} else { // overloaded: skipping a tick is an omission
				if n.sock != nil {
					n.sock.ticksSkipped.Inc()
				}
				n.warn.Warnf("round tick %d skipped: inbox full (overload omission)", r)
			}
		}
	}
}

// errMmsgUnsupported is the burst receiver's "fall back to the classic
// reader" signal: the platform built the receiver but the running kernel
// refused the syscall.
var errMmsgUnsupported = fmt.Errorf("rt: recvmmsg unsupported by kernel")

func (n *UDPNode) reader() {
	if m := newMmsgReceiver(n); m != nil {
		defer m.release()
		if n.readerBurst(m) {
			return
		}
		// recvmmsg refused at runtime: classic path takes over.
	}
	ReadDatagrams(n.conn, n.stopCh, n.readLost, n.handleDatagram)
}

// readLost accounts a transient socket read error: datagrams lost.
func (n *UDPNode) readLost(err error) {
	if n.sock != nil {
		n.sock.dropReadErr.Inc()
	}
	n.warn.Warnf("socket read error (datagrams lost): %v", err)
}

// ReadDatagrams is the classic one-syscall-per-datagram reader: it hands
// every datagram to handle (pkt is valid only for the call — the one read
// buffer is reused) and every transient read error to lost, until stop
// closes; from is a value (ReadFromUDP allocates a *net.UDPAddr per
// datagram). Shared with internal/topics.
func ReadDatagrams(conn *net.UDPConn, stop <-chan struct{}, lost func(error), handle func(pkt []byte, from netip.AddrPort)) {
	// One byte of slack past MaxDatagram distinguishes an exactly-full
	// datagram from one the kernel truncated to fit the buffer.
	buf := make([]byte, MaxDatagram+1)
	for {
		sz, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-stop:
				return
			default:
				lost(err)
				continue
			}
		}
		handle(buf[:sz], from)
	}
}

// readerBurst drains the socket with recvmmsg: each wakeup ingests up to a
// whole burst of datagrams in one syscall. Per-datagram handling is
// identical to the classic reader. Reports whether it ran to shutdown
// (false asks the caller to fall back to the classic loop).
func (n *UDPNode) readerBurst(m *mmsgReceiver) bool {
	for {
		cnt, err := m.recv()
		if err == errMmsgUnsupported {
			return false
		}
		if err != nil {
			select {
			case <-n.stopCh:
				return true
			default:
				n.readLost(err)
				continue
			}
		}
		for i := 0; i < cnt; i++ {
			n.handleDatagram(m.packet(i), m.from(i))
		}
	}
}

// handleDatagram validates, decodes and enqueues one received datagram.
// pkt is valid only for the duration of the call (the read buffer is
// reused); from is used for warnings only.
func (n *UDPNode) handleDatagram(pkt []byte, from netip.AddrPort) {
	sz := len(pkt)
	if n.sock != nil {
		n.sock.recvDatagrams.Inc()
		n.sock.recvBytes.Add(int64(sz))
	}
	if sz > MaxDatagram {
		if n.sock != nil {
			n.sock.dropOversize.Inc()
		}
		seq := n.cfg.Capture.Record(capture.DirIngress, 0, mid.None, capture.DropOversize, 0, nil)
		n.warn.Warnf("oversize datagram from %v truncated past %d bytes: dropped%s", from, MaxDatagram, n.warn.CapNote(seq))
		return
	}
	group, src, body, err := wire.ParseEnvelope(pkt)
	if err != nil {
		if n.sock != nil {
			n.sock.dropShort.Inc()
		}
		seq := n.cfg.Capture.Record(capture.DirIngress, 0, mid.None, capture.DropShort, 0, pkt)
		n.warn.Warnf("unparseable datagram (%d bytes) from %v: dropped%s", sz, from, n.warn.CapNote(seq))
		return
	}
	if group != 0 {
		if n.sock != nil {
			n.sock.dropBadSrc.Inc()
		}
		seq := n.cfg.Capture.Record(capture.DirIngress, group, src, capture.DropGroup, 0, body)
		n.warn.Warnf("datagram from %v for group %d on single-group node: dropped%s", from, group, n.warn.CapNote(seq))
		return
	}
	if src < 0 || int(src) >= n.cfg.N || src == n.cfg.Self {
		// Nobody in the group sends as a non-member, and nobody but us sends
		// as us — and our own frames never come back through the socket.
		if n.sock != nil {
			n.sock.dropBadSrc.Inc()
		}
		seq := n.cfg.Capture.Record(capture.DirIngress, 0, src, capture.DropBadSrc, 0, body)
		n.warn.Warnf("datagram from %v claims member %d (group of %d, we are %d): dropped%s", from, src, n.cfg.N, n.cfg.Self, n.warn.CapNote(seq))
		return
	}
	act := n.cfg.Fault.Recv(src, n.cfg.Self)
	if act.Drop {
		n.cfg.Capture.Record(capture.DirIngress, 0, src, capture.FaultDrop, act.Kinds, body)
		return // injected receive omission (or crashed self)
	}
	// Decode in place: Unmarshal never aliases its input, so the read buffer
	// is reusable at once — no per-datagram copy, and a control record comes
	// from the loop's free list, which gets it back after Recv. A delivery the
	// fault hook touches is held by a closure: decoded fresh, never recycled.
	free := n.inbox.Free
	if act.Faulty() {
		free = nil
	}
	pdu, err := free.Unmarshal(body)
	if err != nil {
		if n.sock != nil {
			n.sock.dropDecode.Inc()
		}
		seq := n.cfg.Capture.Record(capture.DirIngress, 0, src, capture.DropDecode, 0, body)
		n.warn.Warnf("undecodable datagram from %v (%d bytes): %v%s", from, sz, err, n.warn.CapNote(seq))
		return // malformed datagram: dropped
	}
	if !act.Faulty() {
		accepted := n.enqueueDatagram(Event{Kind: EvRecv, To: (*udpHost)(n), Src: src, PDU: pdu})
		if n.cfg.Capture != nil {
			v := capture.Delivered
			if !accepted {
				v = capture.DropInbox
			}
			n.cfg.Capture.Record(capture.DirIngress, 0, src, v, 0, body)
		}
		return
	}
	n.cfg.Capture.Record(capture.DirIngress, 0, src, capture.Classify(capture.Delivered, act), act.Kinds, body)
	// A duplicate is the same PDU delivered again (see the mesh's recvFrame).
	deliver := func() {
		n.enqueueDatagram(Event{Call: func() {
			for c := 0; c <= act.Dup; c++ {
				n.proc.Recv(src, pdu)
			}
		}})
	}
	if act.Delay > 0 {
		time.AfterFunc(act.Delay, deliver)
		return
	}
	deliver()
}

// enqueueDatagram hands a received datagram's event to the protocol loop; a
// full inbox drops it, like any datagram. Reports whether the event was
// accepted.
func (n *UDPNode) enqueueDatagram(e Event) bool {
	if n.inbox.Offer(e) {
		return true
	}
	n.obs.InboxDropped(n.cfg.Self)
	return false
}

// udpTransport sends PDUs as [src:4][marshaled PDU] datagrams: the group-0
// envelope, byte-identical to the pre-group framing.
type udpTransport struct{ n *UDPNode }

// write ships one framed datagram and accounts for it.
func (t udpTransport) write(dst mid.ProcID, frame []byte) {
	if _, err := t.n.conn.WriteToUDP(frame, t.n.peers[dst]); err != nil {
		// Loss is an omission the protocol repairs; count it anyway.
		if t.n.sock != nil {
			t.n.sock.sendErrors.Inc()
		}
		return
	}
	if t.n.sock != nil {
		t.n.sock.sendDatagrams.Inc()
		t.n.sock.sendBytes.Add(int64(len(frame)))
	}
}

// shipAct ships under an already-computed fault verdict, so the injector
// is consulted exactly once per datagram per destination regardless of
// which send path runs. Delayed copies clone the frame into their own
// pooled buffer because the caller reclaims frame on return.
func (t udpTransport) shipAct(dst mid.ProcID, frame []byte, act faultrt.Action) {
	if act.Drop {
		return // injected send omission (or crashed self)
	}
	if act.Delay > 0 {
		cp := append(wire.GetBuf(len(frame)), frame...)
		copies := 1 + act.Dup
		time.AfterFunc(act.Delay, func() {
			for c := 0; c < copies; c++ {
				t.write(dst, cp)
			}
			wire.PutBuf(cp)
		})
		return
	}
	for c := 0; c <= act.Dup; c++ {
		t.write(dst, frame)
	}
}

// checkSize rejects a frame no receiver would accept: it would only be
// sent for every peer to count it as udp_drop_oversize. Reported here at
// the sender, where the operator can actually act on it.
func (t udpTransport) checkSize(frame []byte, pdu wire.PDU) bool {
	if len(frame) <= MaxDatagram {
		return true
	}
	if t.n.sock != nil {
		t.n.sock.sendOversize.Inc()
	}
	seq := t.n.cfg.Capture.Record(capture.DirEgress, 0, mid.None, capture.DropOversize, 0, nil)
	t.n.warn.Warnf("oversize %v frame (%d bytes > %d): dropped before send%s", pdu.Kind(), len(frame), MaxDatagram, t.n.warn.CapNote(seq))
	return false
}

// recordEgress captures one outgoing frame under its fault verdict. The
// stored bytes are the PDU body behind the group-0 envelope — the record's
// Peer and Group fields carry what the envelope would.
func (n *UDPNode) recordEgress(dst mid.ProcID, act faultrt.Action, frame []byte) {
	if n.cfg.Capture == nil {
		return
	}
	n.cfg.Capture.Record(capture.DirEgress, 0, dst,
		capture.Classify(capture.Sent, act), act.Kinds, frame[wire.EnvelopeSize(0):])
}

// burst ships frame to every listed destination in one sendmmsg, with full
// socket accounting. It reports false when the caller should take the
// classic per-destination path instead.
func (t udpTransport) burst(dsts []mid.ProcID, frame []byte) bool {
	mm := t.n.mmsend
	if !mm.Usable(len(dsts)) {
		return false
	}
	for i, dst := range dsts {
		mm.Queue(i, dst, frame)
	}
	sent, errs, ok := mm.Send(len(dsts))
	if ok && t.n.sock != nil {
		t.n.sock.sendDatagrams.Add(int64(sent))
		t.n.sock.sendBytes.Add(int64(sent * len(frame)))
		t.n.sock.sendErrors.Add(int64(errs))
	}
	return ok
}

func (t udpTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	if dst == t.n.cfg.Self || dst < 0 || int(dst) >= t.n.cfg.N {
		return
	}
	frame, err := wire.MarshalFrame(0, t.n.cfg.Self, pdu)
	if err != nil || !t.checkSize(frame, pdu) {
		wire.PutBuf(frame)
		return
	}
	act := t.n.cfg.Fault.Send(t.n.cfg.Self, dst)
	t.n.recordEgress(dst, act, frame)
	t.shipAct(dst, frame, act)
	wire.PutBuf(frame)
}

// Broadcast marshals the PDU exactly once and sends the same framed bytes
// to every peer — destinations with a clean fault verdict leave in one
// sendmmsg burst where the platform has it, the rest take the per-copy
// path. Neither sender retains the buffer, so it goes back to the pool
// after the fan-out.
func (t udpTransport) Broadcast(pdu wire.PDU) {
	frame, err := wire.MarshalFrame(0, t.n.cfg.Self, pdu)
	if err != nil || !t.checkSize(frame, pdu) {
		wire.PutBuf(frame)
		return
	}
	if t.n.cfg.Capture != nil {
		t.n.cfg.Capture.Record(capture.DirEgress, 0, mid.None, capture.Sent, 0,
			frame[wire.EnvelopeSize(0):])
	}
	burst := t.n.burstScratch[:0]
	for i := 0; i < t.n.cfg.N; i++ {
		dst := mid.ProcID(i)
		if dst == t.n.cfg.Self {
			continue
		}
		act := t.n.cfg.Fault.Send(t.n.cfg.Self, dst)
		if act.Faulty() {
			t.n.recordEgress(dst, act, frame)
			t.shipAct(dst, frame, act)
			continue
		}
		burst = append(burst, dst)
	}
	t.n.burstScratch = burst[:0]
	if !t.burst(burst, frame) {
		for _, dst := range burst {
			t.write(dst, frame)
		}
	}
	wire.PutBuf(frame)
}
