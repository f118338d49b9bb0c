// Package psync reimplements the essentials of Psync (Peterson, Buchholz,
// Schlichting 1989), the conversation-based causal multicast the paper
// cites as its second baseline.
//
// Messages are nodes of a context graph: each carries the identifiers of
// the leaves of the sender's view (its direct causal predecessors) and is
// delivered only after its whole causal past. Holes in the graph are
// repaired with NAK-driven retransmissions. Two properties distinguish it
// from urcgc in the paper's comparison:
//
//   - flow control deletes the messages exceeding the waiting-list bound,
//     thereby *increasing* the omission rate instead of pacing senders
//     (Section 6);
//   - crash handling uses the specialized blocking operation mask_out,
//     re-run from scratch on every failure, during which the conversation
//     makes no progress.
package psync

import (
	"fmt"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/waitlist"
	"urcgc/internal/wire"
)

// Config carries Psync group parameters.
type Config struct {
	N int
	K int // silence threshold and per-phase retries for mask_out
	// WaitBound caps the waiting list; arrivals beyond it are deleted
	// (Psync's flow control). Zero means unbounded.
	WaitBound int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("psync: N = %d", c.N)
	}
	if c.K < 1 {
		return fmt.Errorf("psync: K = %d", c.K)
	}
	if c.WaitBound < 0 {
		return fmt.Errorf("psync: negative WaitBound")
	}
	return nil
}

// Data is a context-graph node: payload plus the leaves of the sender's
// view at send time.
type Data struct {
	Msg causal.Message // Deps = direct predecessors (the leaves)
}

// Kind implements wire.PDU.
func (*Data) Kind() wire.Kind { return wire.KindPsData }

// EncodedSize implements wire.PDU.
func (d *Data) EncodedSize() int {
	return 1 + 8 + 2 + 8*len(d.Msg.Deps) + 2 + len(d.Msg.Payload)
}

// Nak requests retransmission of missing context-graph nodes.
type Nak struct {
	Requester mid.ProcID
	Wants     []mid.MID
}

// Kind implements wire.PDU.
func (*Nak) Kind() wire.Kind { return wire.KindPsNak }

// EncodedSize implements wire.PDU.
func (n *Nak) EncodedSize() int { return 1 + 4 + 2 + 8*len(n.Wants) }

// Retrans answers a Nak.
type Retrans struct {
	Responder mid.ProcID
	Msgs      []*causal.Message
}

// Kind implements wire.PDU.
func (*Retrans) Kind() wire.Kind { return wire.KindPsRetrans }

// EncodedSize implements wire.PDU.
func (r *Retrans) EncodedSize() int {
	s := 1 + 4 + 2
	for _, m := range r.Msgs {
		s += 8 + 2 + 8*len(m.Deps) + 2 + len(m.Payload)
	}
	return s
}

// Mask is the mask_out operation: Dead are being masked out of the
// conversation. Commit false is the proposal phase (members suspend and
// ack); commit true installs the mask and resumes.
type Mask struct {
	Initiator mid.ProcID
	Epoch     int32
	Dead      []bool
	Commit    bool
	// MaxAvail, on commit, tells per masked sequence the highest node any
	// live member holds; later nodes are discarded from waiting lists.
	MaxAvail mid.SeqVector
}

// Kind implements wire.PDU.
func (*Mask) Kind() wire.Kind { return wire.KindPsMask }

// EncodedSize implements wire.PDU.
func (m *Mask) EncodedSize() int {
	return 1 + 4 + 4 + 1 + (len(m.Dead)+7)/8 + 4*len(m.MaxAvail)
}

// MaskAck acknowledges a Mask proposal, carrying the member's delivered
// vector so the initiator can compute MaxAvail.
type MaskAck struct {
	Sender    mid.ProcID
	Epoch     int32
	Delivered mid.SeqVector
}

// Kind implements wire.PDU.
func (*MaskAck) Kind() wire.Kind { return wire.KindPsMaskAck }

// EncodedSize implements wire.PDU.
func (a *MaskAck) EncodedSize() int { return 1 + 4 + 4 + 4*len(a.Delivered) }

// Transport mirrors the urcgc transport contract.
type Transport interface {
	Send(dst mid.ProcID, pdu wire.PDU)
	Broadcast(pdu wire.PDU)
}

// Callbacks surface protocol events.
type Callbacks struct {
	OnDeliver func(m *causal.Message)
	OnDiscard func(m *causal.Message) // flow-control deletion or mask_out orphan
	OnMasked  func(epoch int32, alive []bool)
}

// Process is one Psync conversation participant.
type Process struct {
	id  mid.ProcID
	cfg Config
	tp  Transport
	cb  Callbacks

	tracker *causal.Tracker
	wait    *waitlist.List
	store   map[mid.MID]*causal.Message // delivered nodes retained for NAK answers
	view    []bool
	epoch   int32
	nextSeq mid.Seq
	outbox  [][]byte

	suspended    bool
	maskEpoch    int32
	maskDead     []bool
	maskAcks     map[mid.ProcID]mid.SeqVector
	maskSubs     int
	initiating   bool
	heardThisSub []bool
	silence      []int
	pending      []*causal.Message // data queued during mask_out

	// Stats for reports and tests.
	Stats Stats
}

// Stats counts externally observable Psync activity.
type Stats struct {
	Sent       int
	Delivered  int
	Naks       int
	Dropped    int // flow-control deletions (induced omissions)
	Discarded  int // mask_out orphan deletions
	Masks      int
	SuspendedT int64
}

// NewProcess returns a Psync entity.
func NewProcess(id mid.ProcID, cfg Config, tp Transport, cb Callbacks) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(id) >= cfg.N || id < 0 {
		return nil, fmt.Errorf("psync: id %d outside group of %d", id, cfg.N)
	}
	p := &Process{
		id:           id,
		cfg:          cfg,
		tp:           tp,
		cb:           cb,
		tracker:      causal.NewTracker(cfg.N),
		wait:         waitlist.New(cfg.N),
		store:        make(map[mid.MID]*causal.Message),
		view:         make([]bool, cfg.N),
		heardThisSub: make([]bool, cfg.N),
		silence:      make([]int, cfg.N),
	}
	for i := range p.view {
		p.view[i] = true
	}
	return p, nil
}

// ID returns the process identifier.
func (p *Process) ID() mid.ProcID { return p.id }

// Delivered returns the per-sender delivered counts.
func (p *Process) Delivered() mid.SeqVector { return p.tracker.Processed() }

// WaitingLen returns the waiting-list length.
func (p *Process) WaitingLen() int { return p.wait.Len() }

// Alive reports whether q is unmasked.
func (p *Process) Alive(q mid.ProcID) bool {
	return q >= 0 && int(q) < len(p.view) && p.view[q]
}

// Suspended reports whether a mask_out is blocking the conversation.
func (p *Process) Suspended() bool { return p.suspended }

// Submit queues a payload and returns the MID it will carry. It is sent
// with the current leaves as parents at the next subrun.
func (p *Process) Submit(payload []byte) mid.MID {
	p.outbox = append(p.outbox, payload)
	return mid.MID{Proc: p.id, Seq: p.nextSeq + mid.Seq(len(p.outbox))}
}

// leaves returns the direct-predecessor labels for a new node: the latest
// delivered node of every sequence (the conservative reading of Psync's
// context-graph leaves).
func (p *Process) leaves() mid.DepList {
	var deps mid.DepList
	for q := 0; q < p.cfg.N; q++ {
		qp := mid.ProcID(q)
		if qp == p.id {
			continue
		}
		if s := p.tracker.LastProcessed(qp); s > 0 {
			deps = append(deps, mid.MID{Proc: qp, Seq: s})
		}
	}
	return deps
}

// StartRound drives the process; like the other protocols, activity happens
// on even rounds (subrun starts).
func (p *Process) StartRound(r int) {
	if p.suspended {
		p.Stats.SuspendedT++
	}
	if r%2 != 0 {
		return
	}
	if p.suspended {
		p.maskTick()
	} else {
		p.normalTick()
	}
	p.silenceTick()
}

func (p *Process) normalTick() {
	if len(p.outbox) > 0 {
		payload := p.outbox[0]
		p.outbox = p.outbox[1:]
		p.nextSeq++
		m := &causal.Message{
			ID:      mid.MID{Proc: p.id, Seq: p.nextSeq},
			Deps:    p.leaves(),
			Payload: payload,
		}
		p.Stats.Sent++
		p.tp.Broadcast(&Data{Msg: *m})
		p.deliver(m)
		p.cascade()
	}
	// NAK the first missing node of every blocked sequence.
	need := p.wait.MissingBefore(p.tracker.Processed())
	var wants []mid.MID
	for q, s := range need {
		if s != 0 && !p.tracker.IsCondemned(mid.MID{Proc: mid.ProcID(q), Seq: s}) {
			wants = append(wants, mid.MID{Proc: mid.ProcID(q), Seq: s})
		}
	}
	if len(wants) > 0 {
		p.Stats.Naks++
		p.tp.Broadcast(&Nak{Requester: p.id, Wants: wants})
	}
}

// Recv handles one delivered PDU.
func (p *Process) Recv(src mid.ProcID, pdu wire.PDU) {
	if src >= 0 && int(src) < len(p.heardThisSub) {
		p.heardThisSub[src] = true
	}
	switch v := pdu.(type) {
	case *Data:
		if p.suspended {
			cp := v.Msg
			p.pending = append(p.pending, &cp)
			return
		}
		p.accept(&v.Msg)
	case *Nak:
		p.answerNak(v)
	case *Retrans:
		for _, m := range v.Msgs {
			if p.suspended {
				p.pending = append(p.pending, m)
				continue
			}
			p.accept(m)
		}
	case *Mask:
		p.onMask(v)
	case *MaskAck:
		if p.initiating && v.Epoch == p.maskEpoch {
			p.maskAcks[v.Sender] = v.Delivered
		}
	}
}

func (p *Process) accept(m *causal.Message) {
	if m.Validate() != nil {
		return
	}
	if m.ID.Seq <= p.tracker.LastProcessed(m.ID.Proc) || p.wait.Has(m.ID) || p.tracker.Doomed(m) {
		return
	}
	if p.tracker.Ready(m) {
		p.deliver(m)
		p.cascade()
		return
	}
	// Psync flow control: beyond the bound, delete (an induced omission).
	if p.cfg.WaitBound > 0 && p.wait.Len() >= p.cfg.WaitBound {
		p.Stats.Dropped++
		if p.cb.OnDiscard != nil {
			p.cb.OnDiscard(m)
		}
		return
	}
	p.wait.Add(m)
}

func (p *Process) deliver(m *causal.Message) {
	if err := p.tracker.Process(m); err != nil {
		panic(fmt.Sprintf("psync: process %d: %v", p.id, err))
	}
	p.store[m.ID] = m
	p.Stats.Delivered++
	if p.cb.OnDeliver != nil {
		p.cb.OnDeliver(m)
	}
}

func (p *Process) cascade() {
	for {
		m := p.wait.NextReady(p.tracker)
		if m == nil {
			return
		}
		p.wait.Remove(m.ID)
		p.deliver(m)
	}
}

func (p *Process) answerNak(n *Nak) {
	var msgs []*causal.Message
	for _, want := range n.Wants {
		if m := p.store[want]; m != nil {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) > 0 {
		p.tp.Send(n.Requester, &Retrans{Responder: p.id, Msgs: msgs})
	}
}

// ---- mask_out ----

func (p *Process) silenceTick() {
	anyTraffic := false
	for q := range p.heardThisSub {
		if p.heardThisSub[q] {
			anyTraffic = true
			break
		}
	}
	for q := range p.silence {
		if mid.ProcID(q) == p.id || !p.view[q] {
			continue
		}
		if p.heardThisSub[q] {
			p.silence[q] = 0
		} else if anyTraffic {
			p.silence[q]++
		}
		p.heardThisSub[q] = false
	}
	if p.suspended {
		return
	}
	dead := make([]bool, p.cfg.N)
	found := false
	for q := range p.silence {
		if p.view[q] && mid.ProcID(q) != p.id && p.silence[q] >= p.cfg.K {
			dead[q] = true
			found = true
		}
	}
	if !found {
		return
	}
	acting := p.id
	for q := range p.view {
		if p.view[q] && !dead[q] {
			acting = mid.ProcID(q)
			break
		}
	}
	if acting == p.id {
		p.startMask(dead)
	}
}

func (p *Process) startMask(dead []bool) {
	p.suspended = true
	p.initiating = true
	p.maskEpoch = p.epoch + 1
	p.maskDead = dead
	p.maskSubs = 0
	p.maskAcks = map[mid.ProcID]mid.SeqVector{p.id: p.tracker.Processed().Clone()}
}

func (p *Process) onMask(m *Mask) {
	if m.Epoch <= p.epoch {
		return
	}
	if !m.Commit {
		p.suspended = true
		p.maskEpoch = m.Epoch
		p.maskDead = m.Dead
		p.tp.Send(m.Initiator, &MaskAck{Sender: p.id, Epoch: m.Epoch, Delivered: p.tracker.Processed().Clone()})
		return
	}
	p.installMask(m)
}

func (p *Process) installMask(m *Mask) {
	p.epoch = m.Epoch
	for q := range p.view {
		if q < len(m.Dead) && m.Dead[q] {
			p.view[q] = false
		}
	}
	// Orphans: nodes of masked sequences beyond what any live member holds
	// can never be repaired; condemn and drop dependents.
	for q := range m.Dead {
		if !m.Dead[q] || q >= len(m.MaxAvail) {
			continue
		}
		qp := mid.ProcID(q)
		if p.tracker.LastProcessed(qp) <= m.MaxAvail[q] {
			_ = p.tracker.Condemn(qp, m.MaxAvail[q]+1)
		}
	}
	for _, dropped := range p.wait.DropDoomed(p.tracker) {
		p.Stats.Discarded++
		if p.cb.OnDiscard != nil {
			p.cb.OnDiscard(dropped)
		}
	}
	p.suspended = false
	p.initiating = false
	p.Stats.Masks++
	if p.cb.OnMasked != nil {
		p.cb.OnMasked(p.epoch, append([]bool(nil), p.view...))
	}
	pend := p.pending
	p.pending = nil
	for _, msg := range pend {
		p.accept(msg)
	}
	p.cascade()
}

func (p *Process) maskTick() {
	if !p.initiating {
		return // member: wait for the commit (or a restarted proposal)
	}
	p.maskSubs++
	p.tp.Broadcast(&Mask{Initiator: p.id, Epoch: p.maskEpoch, Dead: p.maskDead})
	allAcked := true
	for q := range p.view {
		qp := mid.ProcID(q)
		if !p.view[q] || p.maskDead[q] || qp == p.id {
			continue
		}
		if _, ok := p.maskAcks[qp]; !ok {
			allAcked = false
		}
	}
	if !allAcked && p.maskSubs < 2*p.cfg.K {
		return
	}
	// Commit: compute MaxAvail over the acked delivered vectors.
	maxAvail := mid.NewSeqVector(p.cfg.N)
	for _, v := range p.maskAcks {
		maxAvail.MaxInto(v)
	}
	commit := &Mask{
		Initiator: p.id, Epoch: p.maskEpoch, Dead: p.maskDead,
		Commit: true, MaxAvail: maxAvail,
	}
	p.tp.Broadcast(commit)
	p.installMask(commit)
}
