package rt

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// A member's link carries group-enveloped frames to its peers: over a UDP
// socket (udpLink), or by hand-off to the peer members of an in-process Mesh.
// Everything around the hand-off is shared: framing, size check, fault
// verdicts and capture on the way out (session.ship), and the one datagram
// validator on the way in (Member.ingest). The two links differ in where
// ingest runs — on the socket's reader goroutine, which queues the decoded
// PDU, or on the receiving shard's loop, to which a mesh peer queued the
// still-encoded frame — and in how a frame physically leaves: a mesh peer
// gets each frame as it is shipped (writeOne), a socket peer one datagram
// per shard loop turn carrying every frame shipped to it (shard.flush).

// Send implements core.Transport.
func (s *session) Send(dst mid.ProcID, pdu wire.PDU) {
	if dst != s.m.cfg.Self && dst >= 0 && int(dst) < s.m.cfg.N {
		s.ship(pdu, dst)
	}
}

// Broadcast implements core.Transport.
func (s *session) Broadcast(pdu wire.PDU) { s.ship(pdu, mid.None) }

// ship counts pdu, marshals it exactly once behind the group envelope and
// ships the same bytes to one peer, or to every peer when to is mid.None:
// destinations with a clean fault verdict are queued for the shard loop's
// next flush on a socket and handed over at once on a Mesh, the rest take the
// per-copy path. A crashed site sends nothing. Shard goroutine.
func (s *session) ship(pdu wire.PDU, to mid.ProcID) {
	m := s.m
	if m.Killed() {
		return
	}
	s.obs.Shipped(pdu)
	frame, err := wire.MarshalFrame(s.group, m.cfg.Self, pdu)
	if err != nil || !m.checkSize(frame, s.group, to, pdu) {
		wire.PutBuf(frame)
		return
	}
	// Capture records store the PDU body only: the envelope's group and peer
	// are fields of the record.
	body := frame[wire.EnvelopeSize(s.group):]
	sh := newSharedBuf(frame) // the sender's own hold, released after the fan-out
	first, last := to, to
	if to == mid.None {
		m.cap.Record(capture.DirEgress, s.group, mid.None, capture.Sent, 0, body)
		first, last = 0, mid.ProcID(m.cfg.N-1)
	}
	for dst := first; dst <= last; dst++ {
		if dst == m.cfg.Self {
			continue
		}
		act := m.cfg.Fault.Send(s.group, m.cfg.Self, dst)
		if to != mid.None || act.Faulty() {
			m.cap.Record(capture.DirEgress, s.group, dst, capture.Classify(capture.Sent, act), act.Kinds, body)
		}
		switch {
		case act.Drop: // injected send omission (or crashed self)
		case act.Faulty():
			s.shipFaulty(dst, sh, act)
		case m.udp != nil:
			s.shard.queue(m, dst, sh)
		default:
			m.writeOne(s.group, dst, sh)
		}
	}
	sh.release()
}

// shipFaulty sends one destination its 1+Dup copies of a datagram, after
// Delay if any. A delayed fan-out holds its own reference on sh until the
// timer has written.
func (s *session) shipFaulty(dst mid.ProcID, sh *sharedBuf, act faultrt.Action) {
	m, group := s.m, s.group
	if act.Delay == 0 {
		for c := 0; c <= act.Dup; c++ {
			m.writeOne(group, dst, sh)
		}
		return
	}
	sh.hold()
	time.AfterFunc(act.Delay, func() {
		for c := 0; c <= act.Dup; c++ {
			m.writeOne(group, dst, sh)
		}
		sh.release()
	})
}

// maxBundled caps the frames of one bundle: each takes two iovecs of its
// datagram, and the kernel takes at most 1024 (UIO_MAXIOV).
const maxBundled = 256

// outbox is what a socket member's shard loop has shipped to each peer and
// not yet sent: one bundle per peer, flushed as one datagram each once the
// loop has run the events that were queued behind the first frame, or sooner
// when its inbox runs dry — so a frame waits at most one inbox backlog, and an
// idle member sends after every event. Loop goroutine only.
type outbox struct {
	frames [][]*sharedBuf // per peer, in ship order; each holds a reference
	size   []int          // per peer: the pending frames' size as a bundle
	peers  []mid.ProcID   // the peers with frames pending, in first-queued order
	left   int            // events the loop runs before it flushes
}

func newOutbox(n int) outbox {
	o := outbox{frames: make([][]*sharedBuf, n), size: make([]int, n), peers: make([]mid.ProcID, 0, n)}
	for p := range o.size {
		o.size[p] = wire.BundleHeaderSize
	}
	return o
}

// queue adds one more reference on buf to dst's bundle, first sending the
// bundle alone when buf would take it past MaxDatagram or maxBundled frames.
func (sh *shard) queue(m *Member, dst mid.ProcID, buf *sharedBuf) {
	o := &sh.out
	if k := len(o.frames[dst]); k == 0 {
		if len(o.peers) == 0 {
			o.left = len(sh.c)
		}
		o.peers = append(o.peers, dst)
	} else if k == maxBundled || o.size[dst]+wire.BundledSize(buf.buf) > MaxDatagram {
		i := slices.Index(o.peers, dst)
		sh.send(m, o.peers[i:i+1])
		o.release(dst)
	}
	buf.hold()
	o.frames[dst] = append(o.frames[dst], buf)
	o.size[dst] += wire.BundledSize(buf.buf)
}

// flush sends every pending bundle, one datagram per peer, unless the member
// was fail-stopped meanwhile: then the frames it queued before the kill are
// released unsent, like everything a crashed site has not yet sent.
func (sh *shard) flush(m *Member) {
	if !m.Killed() {
		sh.send(m, sh.out.peers)
	}
	sh.out.drop()
}

// drop releases every pending frame: after a flush has sent them, and unsent
// by Stop, once the loop has exited.
func (o *outbox) drop() {
	for _, p := range o.peers {
		o.release(p)
	}
	o.peers = o.peers[:0]
}

// release gives back peer p's pending references; its bundle restarts empty.
func (o *outbox) release(p mid.ProcID) {
	for i, f := range o.frames[p] {
		f.release()
		o.frames[p][i] = nil
	}
	o.frames[p] = o.frames[p][:0]
	o.size[p] = wire.BundleHeaderSize
}

// send ships each listed peer its pending frames as one datagram — in one
// sendmmsg where the platform has it, else one WriteToUDP each — and
// accounts for them. The frames stay pending: the caller releases them.
func (sh *shard) send(m *Member, peers []mid.ProcID) {
	o := &sh.out
	sent, errs, ok := sh.burst.send(peers, o.frames)
	if !ok {
		for _, p := range peers {
			m.writeBundle(p, o.frames[p], o.size[p])
		}
		return
	}
	bytes := 0
	for _, p := range peers[:sent] {
		bytes += o.wireSize(p)
	}
	m.sock.sent(sent, bytes, errs, true)
}

// wireSize is the length of the datagram carrying p's pending frames: a lone
// frame travels plain.
func (o *outbox) wireSize(p mid.ProcID) int {
	if f := o.frames[p]; len(f) == 1 {
		return len(f[0].buf)
	}
	return o.size[p]
}

// writeBundle ships one peer's pending frames with one WriteToUDP: a lone
// frame as it is, a bundle copied into one pooled buffer, so every platform
// speaks one format.
func (m *Member) writeBundle(dst mid.ProcID, frames []*sharedBuf, size int) {
	pkt := frames[0].buf
	if len(frames) > 1 {
		pkt = wire.AppendBundleHeader(wire.GetBuf(size))
		for _, f := range frames {
			pkt = append(wire.AppendBundled(pkt, f.buf), f.buf...)
		}
		defer wire.PutBuf(pkt)
	}
	m.writeTo(dst, pkt)
}

// writeOne ships one copy of sh to dst and accounts for it: a mesh hand-off
// counts as sent, like a socket write, before the receiver can count it.
// Safe from any goroutine (delayed copies run on a timer's).
func (m *Member) writeOne(group uint32, dst mid.ProcID, sh *sharedBuf) {
	if m.mesh != nil {
		m.sock.sent(1, len(sh.buf), 0, false)
		m.mesh.members[dst].deliver(group, sh)
		return
	}
	m.writeTo(dst, sh.buf)
}

// writeTo sends pkt to dst over the socket and accounts for it.
func (m *Member) writeTo(dst mid.ProcID, pkt []byte) {
	if _, err := m.udp.conn.WriteToUDP(pkt, m.udp.peers[dst]); err != nil {
		m.sock.sent(0, 0, 1, false) // loss is an omission the protocol repairs; count it anyway
		return
	}
	m.sock.sent(1, len(pkt), 0, false)
}

// deliver queues one more reference on sh for m's shard loop of group, which
// validates and decodes it there and releases it; a full inbox drops the
// datagram and the reference with it. Called by a mesh peer.
func (m *Member) deliver(group uint32, sh *sharedBuf) {
	sh.hold()
	if !m.sessions[group].offer(event{kind: evFrame, frame: sh}) {
		_, src, body, _ := wire.ParseEnvelope(sh.buf)
		m.cap.Record(capture.DirIngress, group, src, capture.DropInbox, 0, body)
		sh.release()
	}
}

// checkSize rejects a frame no receiver would accept: it would only be sent
// for every peer to count it as oversize. Reported here at the sender, where
// the operator can actually act on it.
func (m *Member) checkSize(frame []byte, group uint32, to mid.ProcID, pdu wire.PDU) bool {
	if len(frame) <= MaxDatagram {
		return true
	}
	if m.sock != nil {
		m.sock.sendOversize.Inc()
	}
	seq := m.cap.Record(capture.DirEgress, group, to, capture.DropOversize, 0, nil)
	m.warn.warnf("oversize %v frame (%d bytes > %d): dropped before send%s", pdu.Kind(), len(frame), MaxDatagram, m.warn.capNote(seq))
	return false
}

// ingest is the one datagram validator: size, then each frame the datagram
// carries — one, or the frames of a bundle in order, split until its framing
// breaks, which drops the rest of it as one bad envelope — through
// ingestFrame. pkt is read only during the call (a reader reuses its buffer
// at once; Unmarshal never aliases its input). loop is nil on a socket's
// reader goroutine, which queues the decoded PDU for the owning shard; a
// mesh peer's frame arrives on that shard's loop already, named by loop, and
// is handed straight to the protocol.
func (m *Member) ingest(pkt []byte, from netip.AddrPort, loop *shard) {
	m.sock.received(len(pkt))
	if len(pkt) > MaxDatagram {
		m.discard(capture.DropOversize, 0, mid.None, nil, "oversize datagram from %v truncated past %d bytes", from, MaxDatagram)
		return
	}
	if !wire.IsBundle(pkt) {
		m.ingestFrame(pkt, from, loop)
		return
	}
	for rest := pkt[wire.BundleHeaderSize:]; ; {
		frame, tail, err := wire.NextBundled(rest)
		if err != nil {
			m.discard(capture.DropShort, 0, mid.None, pkt, "malformed bundle (%d bytes) from %v: the last %d unparseable", len(pkt), from, len(rest))
			return
		}
		m.ingestFrame(frame, from, loop)
		if rest = tail; len(rest) == 0 {
			return
		}
	}
}

// ingestFrame validates and delivers one frame: envelope, hosted group,
// source id, fault verdict, decode, delivery — each refusal with its counter,
// its capture record and a throttled warning. A frame that reached the loop
// of another shard — it names a group that shard does not own — is queued
// for the owner like a reader's: a core.Process runs on its own shard's
// goroutine only.
func (m *Member) ingestFrame(pkt []byte, from netip.AddrPort, loop *shard) {
	group, src, body, err := wire.ParseEnvelope(pkt)
	if err != nil {
		m.discard(capture.DropShort, 0, mid.None, pkt, "unparseable datagram (%d bytes) from %v", len(pkt), from)
		return
	}
	if int64(group) >= int64(len(m.sessions)) {
		m.discard(capture.DropGroup, group, src, body, "datagram from %v for unhosted group %d (hosting %d)", from, group, len(m.sessions))
		return
	}
	if src < 0 || int(src) >= m.cfg.N || src == m.cfg.Self {
		// Nobody in the group sends as a non-member, and nobody but us sends
		// as us — and our own frames never come back through the link.
		m.discard(capture.DropBadSrc, group, src, body, "datagram from %v claims member %d (group of %d, we are %d)", from, src, m.cfg.N, m.cfg.Self)
		return
	}
	s := m.sessions[group]
	direct := loop == s.shard
	act := m.cfg.Fault.Recv(group, src, m.cfg.Self)
	if act.Drop || m.Killed() {
		if m.cap != nil {
			kinds := act.Kinds
			if !act.Drop { // absorbed by a fail-stopped receiver, not an injector
				kinds = kinds.With(faultrt.KindCrash)
			}
			m.cap.Record(capture.DirIngress, group, src, capture.FaultDrop, kinds, body)
		}
		return
	}
	// A control record comes from the owning loop's free list, which gets it
	// back after recv — unless the fault hook holds the delivery in a
	// closure: that one decodes fresh and is never recycled.
	free := s.shard.free
	if act.Faulty() {
		free = nil
	}
	pdu, err := free.Unmarshal(body)
	if err != nil {
		m.discard(capture.DropDecode, group, src, body, "undecodable datagram from %v for group %d (%d bytes): %v", from, group, len(pkt), err)
		return
	}
	if !act.Faulty() {
		if direct {
			m.cap.Record(capture.DirIngress, group, src, capture.Delivered, 0, body)
			s.recv(src, pdu)
			free.Put(pdu)
		} else if s.offer(event{kind: evRecv, src: src, pdu: pdu}) {
			m.cap.Record(capture.DirIngress, group, src, capture.Delivered, 0, body)
		} else {
			seq := m.cap.Record(capture.DirIngress, group, src, capture.DropInbox, 0, body)
			m.warn.warnf("group %d: shard inbox full, datagram from member %d dropped (overload omission)%s", group, src, m.warn.capNote(seq))
		}
		return
	}
	m.cap.Record(capture.DirIngress, group, src, capture.Classify(capture.Delivered, act), act.Kinds, body)
	// A duplicate is the same PDU delivered again: recv keeps nothing of a
	// control PDU, and of a data PDU's messages only the first delivery keeps
	// anything (the second finds them processed or waiting).
	again := func() {
		for c := 0; c <= act.Dup; c++ {
			s.recv(src, pdu)
		}
	}
	switch {
	case act.Delay > 0:
		time.AfterFunc(act.Delay, func() { s.offer(event{call: again}) })
	case direct:
		again()
	default:
		s.offer(event{call: again})
	}
}

// discard accounts one refused datagram: the verdict's counter, a capture
// record of frame, and a throttled warning naming the capture.
func (m *Member) discard(v capture.Verdict, group uint32, src mid.ProcID, frame []byte, format string, args ...any) {
	if m.sock != nil {
		m.sock.drops[v].Inc()
	}
	seq := m.cap.Record(capture.DirIngress, group, src, v, 0, frame)
	m.warn.warnf(format+": dropped%s", append(args, m.warn.capNote(seq))...)
}

// udpLink is a member's socket: one UDP conn shared by every hosted group,
// written by the shard loops and read by one reader goroutine.
type udpLink struct {
	conn  *net.UDPConn
	peers []*net.UDPAddr
}

func newUDPLink(cfg Config) (*udpLink, error) {
	l := &udpLink{peers: make([]*net.UDPAddr, cfg.N)}
	for i, p := range cfg.Peers {
		addr, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			return nil, fmt.Errorf("rt: peer %d %q: %w", i, p, err)
		}
		l.peers[i] = addr
	}
	conn, err := net.ListenUDP("udp", l.peers[cfg.Self])
	if err != nil {
		return nil, fmt.Errorf("rt: bind %q: %w", cfg.Peers[cfg.Self], err)
	}
	l.conn = conn
	return l, nil
}

// errMmsgUnsupported is the burst receiver's "fall back to the classic
// reader" signal: the platform built the receiver but the running kernel
// refused the syscall.
var errMmsgUnsupported = fmt.Errorf("rt: recvmmsg unsupported by kernel")

// reader is the socket's one receiving goroutine: it owns the receive
// buffers, which never cross a goroutine boundary — ingest decodes a
// self-owned PDU before the next read. Each wakeup drains up to a whole burst
// of datagrams with one recvmmsg; where the platform lacks it, or the kernel
// refuses it at run time, the classic one-syscall-per-datagram loop takes
// over.
func (m *Member) reader() {
	conn := m.udp.conn
	lost := func(err error) bool { // a read error: shutting down, or datagrams lost
		select {
		case <-m.stopCh:
			return true
		default:
		}
		if m.sock != nil {
			m.sock.dropReadErr.Inc()
		}
		m.warn.warnf("socket read error (datagrams lost): %v", err)
		return false
	}
	if mm := newMmsgReceiver(conn); mm != nil {
		for {
			cnt, err := mm.recv()
			if err == errMmsgUnsupported {
				break
			}
			if err != nil {
				if lost(err) {
					mm.release()
					return
				}
				continue
			}
			for i := 0; i < cnt; i++ {
				m.ingest(mm.packet(i), mm.from(i), nil)
			}
		}
		mm.release() // the classic loop needs none of the burst set
	}
	// One byte of slack past MaxDatagram distinguishes an exactly-full
	// datagram from an oversize one the kernel truncated to fit the buffer.
	buf := make([]byte, MaxDatagram+1)
	for {
		sz, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if lost(err) {
				return
			}
			continue
		}
		m.ingest(buf[:sz], from, nil)
	}
}

// warner is a member's operator-visible warning line: malformed or oversize
// datagrams, socket errors, overload omissions — everything the protocol
// silently recovers from.
type warner struct {
	logf     func(format string, args ...any)
	prefix   string // names the member, e.g. "topics[2]: "
	captured bool   // frame capture is on: capNote has something to point at
	th       obs.Throttle
}

// warnf logs at a throttled rate (at most one line per second), appending
// how many similar warnings were suppressed in between so nothing is
// silently lost.
func (w *warner) warnf(format string, args ...any) {
	suppressed, ok := w.th.Allow()
	if !ok {
		return
	}
	if suppressed > 0 {
		format += fmt.Sprintf(" [+%d warnings suppressed]", suppressed)
	}
	w.logf(w.prefix+format, args...)
}

// capNote renders the warn-line suffix joining a discard to its captured
// frame, so drop warnings are greppable against the /capture dump. Empty
// when capture is disabled.
func (w *warner) capNote(seq uint64) string {
	if !w.captured {
		return ""
	}
	return fmt.Sprintf(" [capture #%d]", seq)
}

// sockObs accounts link-level traffic and the validator's discards: the
// topics_* counters. A nil *sockObs disables the counters but not the
// throttled logging.
type sockObs struct {
	recvDatagrams, recvBytes  *obs.Counter
	sendDatagrams, sendBytes  *obs.Counter
	sendErrors, sendOversize  *obs.Counter
	sendBursts                *obs.Counter
	dropReadErr, ticksSkipped *obs.Counter
	// drops is the validator's discard taxonomy, indexed by the capture
	// verdict it mirrors one-for-one.
	drops [capture.DropGroup + 1]*obs.Counter
}

func newSockObs(reg *obs.Registry) *sockObs {
	if reg == nil {
		return nil
	}
	c := func(name string) *obs.Counter { return reg.Counter("topics" + name) }
	o := &sockObs{
		recvDatagrams: c("_recv_datagrams_total"),
		recvBytes:     c("_recv_bytes_total"),
		sendDatagrams: c("_send_datagrams_total"),
		sendBytes:     c("_send_bytes_total"),
		sendErrors:    c("_send_errors_total"),
		sendOversize:  c("_send_oversize_total"),
		sendBursts:    c("_send_bursts_total"),
		dropReadErr:   c("_drop_readerr_total"),
		ticksSkipped:  c("_ticks_skipped_total"),
	}
	o.drops[capture.DropShort] = c("_drop_envelope_total")
	o.drops[capture.DropBadSrc] = c("_drop_badsrc_total")
	o.drops[capture.DropDecode] = c("_drop_decode_total")
	o.drops[capture.DropOversize] = c("_drop_oversize_total")
	o.drops[capture.DropGroup] = c("_drop_group_total")
	return o
}

func (o *sockObs) received(bytes int) {
	if o != nil {
		o.recvDatagrams.Inc()
		o.recvBytes.Add(int64(bytes))
	}
}

func (o *sockObs) sent(datagrams, bytes, errs int, burst bool) {
	if o == nil {
		return
	}
	o.sendDatagrams.Add(int64(datagrams))
	o.sendBytes.Add(int64(bytes))
	o.sendErrors.Add(int64(errs))
	if burst {
		o.sendBursts.Inc()
	}
}

// sharedBuf is a pooled wire buffer fanned out to several holders — the
// receivers of a mesh broadcast, the timers of delayed copies: the last
// reference released returns it to the wire pool. Receivers decode
// concurrently, which is safe because reads of the shared bytes are
// read-only and Unmarshal never aliases its input.
type sharedBuf struct {
	buf  []byte
	refs atomic.Int32
}

// sharedBufs is the leaky free list of sharedBuf records — a channel, like
// wire.FreeList and for its reason: a record is taken on the sender's loop
// and released on a receiver's. 64 covers a round's frames in flight; past
// that a record is dropped for the collector.
var sharedBufs = make(chan *sharedBuf, 64)

// newSharedBuf wraps buf with one reference: the creator's own hold.
func newSharedBuf(buf []byte) *sharedBuf {
	var s *sharedBuf
	select {
	case s = <-sharedBufs:
	default:
		s = new(sharedBuf)
	}
	s.buf = buf
	s.refs.Store(1)
	return s
}

// hold takes one more reference.
func (s *sharedBuf) hold() { s.refs.Add(1) }

// release drops one reference; the last one pools the buffer and recycles
// the record, so no holder may touch s after its own release.
func (s *sharedBuf) release() {
	if s.refs.Add(-1) == 0 {
		wire.PutBuf(s.buf)
		s.buf = nil
		select {
		case sharedBufs <- s:
		default:
		}
	}
}
