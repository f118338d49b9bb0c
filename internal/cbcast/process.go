package cbcast

import (
	"fmt"

	"urcgc/internal/mid"
	"urcgc/internal/vclock"
	"urcgc/internal/wire"
)

// Transport is how a CBCAST process reaches its peers (same contract as the
// urcgc transport: Broadcast reaches every other member).
type Transport interface {
	Send(dst mid.ProcID, pdu wire.PDU)
	Broadcast(pdu wire.PDU)
}

// Callbacks surface protocol events.
type Callbacks struct {
	// OnDeliver runs once per message delivered at this process.
	OnDeliver func(m *Data)
	// OnViewInstalled runs when a flush completes and the new view is
	// adopted: the Figure 5 agreement point.
	OnViewInstalled func(epoch int32, alive []bool)
	// OnDiscard runs when a waiting message is dropped at a view change
	// because its causal past died with the removed members.
	OnDiscard func(m *Data)
}

// Process is one CBCAST protocol entity, driven like the urcgc one: a
// StartRound tick per round and Recv per delivered PDU, single-goroutine.
type Process struct {
	id  mid.ProcID
	cfg Config
	tp  Transport
	cb  Callbacks

	vt       vclock.VT // delivery vector
	view     []bool
	epoch    int32
	retained map[key]*Data // unstable messages (sent or delivered)
	ackMat   []vclock.VT   // last known delivery vector per member
	waiting  []*Data
	outbox   [][]byte

	subrun       int64
	heardThisSub []bool
	silence      []int
	deliveredNew bool // delivered something since last send/ack
	sinceAck     int

	ph          phase
	suspended   bool
	curMgr      mid.ProcID // manager of the in-progress flush; None when normal
	flushDead   []bool
	flushEpoch  int32
	phaseSubs   int
	collected   map[mid.ProcID]*Flush
	flushMsgs   []*Data
	acked       []bool
	mgrSilence  int
	pendingData []*Data

	// Stats for reports and tests.
	Stats Stats
}

// Stats counts externally observable CBCAST activity.
type Stats struct {
	Sent       int
	Delivered  int
	Acks       int
	Flushes    int // flush protocols this process completed (view installs)
	Discarded  int
	SuspendedT int64 // rounds spent suspended (the blocking cost)
}

// ackEvery spaces explicit stability messages when idle.
const ackEvery = 2

// NewProcess returns a CBCAST entity.
func NewProcess(id mid.ProcID, cfg Config, tp Transport, cb Callbacks) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(id) >= cfg.N || id < 0 {
		return nil, fmt.Errorf("cbcast: id %d outside group of %d", id, cfg.N)
	}
	p := &Process{
		id:           id,
		cfg:          cfg,
		tp:           tp,
		cb:           cb,
		vt:           vclock.New(cfg.N),
		view:         make([]bool, cfg.N),
		retained:     make(map[key]*Data),
		ackMat:       make([]vclock.VT, cfg.N),
		heardThisSub: make([]bool, cfg.N),
		silence:      make([]int, cfg.N),
	}
	for i := range p.view {
		p.view[i] = true
		p.ackMat[i] = vclock.New(cfg.N)
	}
	p.curMgr = mid.None
	return p, nil
}

// ID returns the process identifier.
func (p *Process) ID() mid.ProcID { return p.id }

// VT returns the delivery vector (not a copy; do not modify).
func (p *Process) VT() vclock.VT { return p.vt }

// Alive reports whether q is in the current view.
func (p *Process) Alive(q mid.ProcID) bool {
	return q >= 0 && int(q) < len(p.view) && p.view[q]
}

// Epoch returns the current view epoch.
func (p *Process) Epoch() int32 { return p.epoch }

// Suspended reports whether a flush currently blocks normal processing —
// the cost urcgc avoids.
func (p *Process) Suspended() bool { return p.suspended }

// RetainedLen returns the number of unstable messages buffered.
func (p *Process) RetainedLen() int { return len(p.retained) }

// WaitingLen returns the causal waiting queue length.
func (p *Process) WaitingLen() int { return len(p.waiting) + len(p.pendingData) }

// Submit queues a payload for broadcast and returns the MID it will carry:
// this process's delivery-vector entry once the message is sent.
func (p *Process) Submit(payload []byte) mid.MID {
	p.outbox = append(p.outbox, payload)
	return mid.MID{Proc: p.id, Seq: mid.Seq(p.vt[p.id]) + mid.Seq(len(p.outbox))}
}

// manager returns the lowest-ranked member of the current view.
func (p *Process) manager() mid.ProcID {
	for i, a := range p.view {
		if a {
			return mid.ProcID(i)
		}
	}
	return 0
}

// StartRound drives the process at the start of round r (subruns are two
// rounds, matching the urcgc clocking so the comparison is apples to
// apples). All protocol activity happens at even rounds.
func (p *Process) StartRound(r int) {
	if p.suspended {
		p.Stats.SuspendedT++
	}
	if r%2 != 0 {
		return
	}
	p.subrun = int64(r / 2)

	if p.ph != phaseNormal || p.suspended {
		p.flushTick()
	} else {
		p.normalTick()
	}

	// Silence bookkeeping for failure detection (manager's duty, but all
	// members track it so a successor manager can take over).
	anyTraffic := false
	for q := range p.heardThisSub {
		if p.heardThisSub[q] {
			anyTraffic = true
			break
		}
	}
	for q := range p.silence {
		qp := mid.ProcID(q)
		if qp == p.id || !p.view[q] {
			continue
		}
		if p.heardThisSub[q] {
			p.silence[q] = 0
		} else if anyTraffic {
			p.silence[q]++
		}
		p.heardThisSub[q] = false
	}
	if p.ph == phaseNormal && !p.suspended {
		dead := make([]bool, p.cfg.N)
		found := false
		for q := range p.silence {
			if p.view[q] && mid.ProcID(q) != p.id && p.silence[q] >= p.cfg.K {
				dead[q] = true
				found = true
			}
		}
		// The acting manager is the lowest-ranked member not itself
		// suspected dead: if the real manager died silently before ever
		// announcing a flush, the next in line must take over.
		acting := p.id
		for q := range p.view {
			if p.view[q] && !dead[q] {
				acting = mid.ProcID(q)
				break
			}
		}
		if found && acting == p.id {
			p.startFlush(dead)
		}
	}
}

func (p *Process) normalTick() {
	sentData := false
	if len(p.outbox) > 0 {
		payload := p.outbox[0]
		p.outbox = p.outbox[1:]
		p.vt.Tick(int(p.id)) // own delivery of own message
		m := &Data{
			Sender:    p.id,
			TS:        p.vt.Clone(),
			Delivered: p.vt.Clone(),
			Payload:   payload,
		}
		p.retained[key{p.id, m.TS[p.id]}] = m
		p.ackMat[p.id] = p.vt.Clone()
		p.Stats.Sent++
		p.Stats.Delivered++
		if p.cb.OnDeliver != nil {
			p.cb.OnDeliver(m)
		}
		p.tp.Broadcast(m)
		sentData = true
		p.deliveredNew = false
		p.sinceAck = 0
	}
	if !sentData {
		p.sinceAck++
		if p.deliveredNew || (len(p.retained) > 0 && p.sinceAck >= ackEvery) {
			p.ackMat[p.id] = p.vt.Clone()
			p.Stats.Acks++
			p.tp.Broadcast(&Ack{Sender: p.id, Delivered: p.vt.Clone()})
			p.deliveredNew = false
			p.sinceAck = 0
		}
	}
	p.compactStable()
}

// Recv handles one delivered PDU.
func (p *Process) Recv(src mid.ProcID, pdu wire.PDU) {
	if src >= 0 && int(src) < len(p.heardThisSub) {
		p.heardThisSub[src] = true
	}
	switch v := pdu.(type) {
	case *Data:
		if p.suspended {
			p.pendingData = append(p.pendingData, v)
			return
		}
		p.acceptData(v)
	case *Ack:
		p.noteVector(v.Sender, v.Delivered)
	case *flushAck:
		if p.ph == phaseAckWait && v.Epoch == p.flushEpoch && int(v.Sender) < p.cfg.N {
			p.acked[v.Sender] = true
		}
	case *FlushReq:
		p.onFlushReq(v)
	case *Flush:
		if p.ph == phaseCollect && v.Epoch == p.flushEpoch {
			p.collected[v.Sender] = v
		}
	case *FlushData:
		p.onFlushData(v)
	case *View:
		p.onView(v)
	}
}

func (p *Process) acceptData(m *Data) {
	p.noteVector(m.Sender, m.Delivered)
	k := key{m.Sender, m.TS[m.Sender]}
	if m.TS[m.Sender] <= p.vt[m.Sender] {
		return // already delivered
	}
	if _, dup := p.retained[k]; dup {
		return
	}
	for _, w := range p.waiting {
		if w.Sender == m.Sender && w.TS[m.Sender] == m.TS[m.Sender] {
			return // already waiting
		}
	}
	if vclock.Deliverable(m.TS, int(m.Sender), p.vt) {
		p.deliver(m)
		p.cascade()
		return
	}
	p.waiting = append(p.waiting, m)
}

func (p *Process) deliver(m *Data) {
	p.vt[m.Sender] = m.TS[m.Sender]
	p.retained[key{m.Sender, m.TS[m.Sender]}] = m
	p.deliveredNew = true
	p.Stats.Delivered++
	if p.cb.OnDeliver != nil {
		p.cb.OnDeliver(m)
	}
}

func (p *Process) cascade() {
	for progress := true; progress; {
		progress = false
		rest := p.waiting[:0]
		for _, m := range p.waiting {
			if vclock.Deliverable(m.TS, int(m.Sender), p.vt) {
				p.deliver(m)
				progress = true
			} else {
				rest = append(rest, m)
			}
		}
		p.waiting = rest
	}
}

func (p *Process) noteVector(src mid.ProcID, v vclock.VT) {
	if src < 0 || int(src) >= len(p.ackMat) {
		return
	}
	p.ackMat[src].Merge(v)
}

// compactStable drops retained messages delivered everywhere in the view.
func (p *Process) compactStable() {
	for k := range p.retained {
		stable := true
		for q, alive := range p.view {
			if !alive {
				continue
			}
			if p.ackMat[q][k.sender] < k.seq {
				stable = false
				break
			}
		}
		if stable {
			delete(p.retained, k)
		}
	}
}

// ---- flush protocol ----

func (p *Process) startFlush(dead []bool) {
	p.curMgr = p.id
	p.flushEpoch = p.epoch + 1
	p.flushDead = dead
	p.ph = phaseCollect
	p.suspended = true
	p.phaseSubs = 0
	p.collected = map[mid.ProcID]*Flush{p.id: {
		Sender: p.id, Epoch: p.flushEpoch, Delivered: p.vt.Clone(), Unstable: p.unstableList(),
	}}
	p.acked = make([]bool, p.cfg.N)
	p.mgrSilence = 0
}

func (p *Process) unstableList() []*Data {
	out := make([]*Data, 0, len(p.retained))
	for _, m := range p.retained {
		out = append(out, m)
	}
	// Deterministic order (by sender, then seq) for reproducible runs.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.Sender < a.Sender || (b.Sender == a.Sender && b.TS[b.Sender] < a.TS[a.Sender]) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}

func (p *Process) onFlushReq(f *FlushReq) {
	if f.Epoch <= p.epoch {
		return
	}
	p.suspended = true
	p.flushEpoch = f.Epoch
	p.flushDead = append([]bool(nil), f.Dead...)
	p.curMgr = f.Manager
	p.mgrSilence = 0
	if f.Manager == p.id {
		return // we are flushing as manager already
	}
	p.ph = phaseNormal // member role: respond, wait
	p.tp.Send(f.Manager, &Flush{
		Sender: p.id, Epoch: f.Epoch, Delivered: p.vt.Clone(), Unstable: p.unstableList(),
	})
}

func (p *Process) onFlushData(f *FlushData) {
	if f.Epoch != p.flushEpoch || !p.suspended {
		return
	}
	p.curMgr = f.Manager
	p.mgrSilence = 0
	for _, m := range f.Msgs {
		p.acceptFlushed(m)
	}
	p.tp.Send(f.Manager, &flushAck{Sender: p.id, Epoch: f.Epoch})
}

// acceptFlushed takes a re-disseminated unstable message during a flush;
// unlike acceptData it is not blocked by the suspension (the flush is the
// one place where catching up happens).
func (p *Process) acceptFlushed(m *Data) {
	if m.TS[m.Sender] <= p.vt[m.Sender] {
		return
	}
	for _, w := range p.waiting {
		if w.Sender == m.Sender && w.TS[m.Sender] == m.TS[m.Sender] {
			return
		}
	}
	if vclock.Deliverable(m.TS, int(m.Sender), p.vt) {
		p.deliver(m)
		p.cascade()
		return
	}
	p.waiting = append(p.waiting, m)
}

func (p *Process) onView(v *View) {
	if v.Epoch <= p.epoch {
		return
	}
	p.epoch = v.Epoch
	copy(p.view, v.Alive)
	p.suspended = false
	p.ph = phaseNormal
	p.curMgr = mid.None
	p.Stats.Flushes++
	// Messages whose causal past died with the removed members can never
	// be delivered: discard them, consistently everywhere (all members saw
	// the same flush dissemination).
	rest := p.waiting[:0]
	for _, m := range p.waiting {
		undeliverable := false
		for q, alive := range p.view {
			if !alive && m.TS[q] > p.vt[q] && mid.ProcID(q) != m.Sender {
				undeliverable = true
				break
			}
		}
		if !alive(p.view, m.Sender) && m.TS[m.Sender] > p.vt[m.Sender]+1 {
			undeliverable = true
		}
		if undeliverable {
			p.Stats.Discarded++
			if p.cb.OnDiscard != nil {
				p.cb.OnDiscard(m)
			}
			continue
		}
		rest = append(rest, m)
	}
	p.waiting = rest
	if p.cb.OnViewInstalled != nil {
		p.cb.OnViewInstalled(p.epoch, append([]bool(nil), p.view...))
	}
	// Resume: queued data received during the flush.
	pend := p.pendingData
	p.pendingData = nil
	for _, m := range pend {
		p.acceptData(m)
	}
	p.cascade()
}

func alive(view []bool, q mid.ProcID) bool {
	return q >= 0 && int(q) < len(view) && view[q]
}

// flushTick advances the manager's flush state machine and the member-side
// retries, one tick per subrun. Every phase lasts K subruns (each subrun
// re-sends, making the phase reliable against omissions), which is where
// the K(5f+6) cost shape comes from.
func (p *Process) flushTick() {
	mgr := p.curMgr
	if mgr == mid.None {
		mgr = p.manager()
	}
	if mgr != p.id {
		// Member: re-send our Flush while the manager collects; watch for
		// manager death and take over if we are the next eligible rank.
		if p.suspended {
			p.mgrSilence++
			if p.mgrSilence >= 2*p.cfg.K && p.nextEligibleAfter(mgr) == p.id {
				// The flush manager died mid-flush: it joins the dead set
				// and the flush restarts under us.
				dead := append([]bool(nil), p.flushDead...)
				if dead == nil {
					dead = make([]bool, p.cfg.N)
				}
				if int(mgr) < len(dead) {
					dead[mgr] = true
				}
				p.view[mgr] = false
				p.startFlush(dead)
				return
			}
			p.tp.Send(mgr, &Flush{
				Sender: p.id, Epoch: p.flushEpoch, Delivered: p.vt.Clone(), Unstable: p.unstableList(),
			})
		}
		return
	}

	// Manager role.
	switch p.ph {
	case phaseCollect:
		p.phaseSubs++
		p.tp.Broadcast(&FlushReq{Manager: p.id, Epoch: p.flushEpoch, Dead: p.flushDead})
		if p.phaseSubs >= 2*p.cfg.K {
			// Collected what we will collect; merge and re-disseminate.
			union := make(map[key]*Data)
			for _, fl := range p.collected {
				for _, m := range fl.Unstable {
					union[key{m.Sender, m.TS[m.Sender]}] = m
				}
			}
			msgs := make([]*Data, 0, len(union))
			for _, m := range union {
				msgs = append(msgs, m)
			}
			sortData(msgs)
			for _, m := range msgs {
				p.acceptFlushed(m)
			}
			p.flushMsgs = msgs
			p.ph = phaseAckWait
			p.phaseSubs = 0
		}
	case phaseAckWait:
		p.phaseSubs++
		p.tp.Broadcast(&FlushData{Manager: p.id, Epoch: p.flushEpoch, Msgs: p.flushMsgs})
		allAcked := true
		for q := range p.view {
			qp := mid.ProcID(q)
			if !p.view[q] || p.flushDead[q] || qp == p.id {
				continue
			}
			if !p.acked[q] {
				allAcked = false
				break
			}
		}
		if allAcked || p.phaseSubs >= 2*p.cfg.K {
			newAlive := make([]bool, p.cfg.N)
			for q := range newAlive {
				newAlive[q] = p.view[q] && !p.flushDead[q]
			}
			v := &View{Manager: p.id, Epoch: p.flushEpoch, Alive: newAlive}
			p.tp.Broadcast(v)
			p.onView(v)
		}
	}
}

// nextEligibleAfter returns the lowest-ranked member after mgr that is in
// the view and not part of the flush's dead set — the member entitled to
// take over a dead manager's flush.
func (p *Process) nextEligibleAfter(mgr mid.ProcID) mid.ProcID {
	for i := int(mgr) + 1; i < p.cfg.N; i++ {
		if p.view[i] && (p.flushDead == nil || !p.flushDead[i]) {
			return mid.ProcID(i)
		}
	}
	return mgr
}

func sortData(msgs []*Data) {
	for i := 1; i < len(msgs); i++ {
		for j := i; j > 0; j-- {
			a, b := msgs[j-1], msgs[j]
			if b.Sender < a.Sender || (b.Sender == a.Sender && b.TS[b.Sender] < a.TS[a.Sender]) {
				msgs[j-1], msgs[j] = b, a
			} else {
				break
			}
		}
	}
}
